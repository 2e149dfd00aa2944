// Package par holds the small shared-parallelism primitives every
// parallel pipeline stage agrees on: the canonical worker-count clamp
// (atpg, detect and exper all bound their pools by the same
// [1, GOMAXPROCS] rule, re-exported as core.ClampWorkers for API users),
// the plain worker pool Run and the ordered-commit fan-out of ATPG.
//
// It sits below atpg/detect/exper in the dependency order on purpose:
// those packages cannot import core (core wires them together), yet all
// stages must resolve a configured worker count identically.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ClampWorkers resolves a configured worker count to [1, GOMAXPROCS]:
// zero and negative values mean "use every CPU", larger requests are cut
// down instead of oversubscribing the scheduler. This is the single
// worker-count rule shared by ATPG (atpg.Generate), fault simulation
// (detect.Run) and the experiment suite (exper.RunSuiteCheckpointed).
func ClampWorkers(w int) int {
	max := runtime.GOMAXPROCS(0)
	if w <= 0 || w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ClampWorkersFor applies ClampWorkers and additionally caps the pool at
// the number of work items, never below one: a fan-out over n items gains
// nothing from more than n workers. This is the shared rule for
// item-bounded pools (the exper suite fan-out over circuits, diagnosis
// over candidate faults).
func ClampWorkersFor(w, items int) int {
	w = ClampWorkers(w)
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// OrderedCommit runs a speculative fan-out over n indexed work items with
// a strict in-order commit: produce(id, i) is evaluated for every index i
// in [0, n) across `workers` goroutines, while commit(i, v) is applied on
// the calling goroutine in strictly increasing index order. It is the
// shared harness for pipeline stages whose per-item work is a pure
// function of the item but whose result application is order-dependent
// (the speculative PODEM phase of internal/atpg).
//
// Contract: produce must not depend on the effects of commit for any
// index >= its own (it may read committed state as a heuristic — e.g. a
// "this item is already redundant" hint — as long as the value it returns
// lets commit reconstruct the sequential outcome). Under that contract
// the commit sequence is identical for every worker count, including the
// inlined workers<=1 fast path, which interleaves produce and commit
// exactly like a plain loop.
//
// window bounds the speculation depth: at most window items may be
// produced but not yet committed, which caps both buffered memory and the
// work wasted when commits invalidate speculation. It is raised to at
// least workers so every goroutine can hold one item.
//
// commit returning false aborts the run: no further items are produced or
// committed (items already in flight are discarded). A panic in produce
// is re-raised on the calling goroutine after the pool drains, mirroring
// Run; a panic in commit aborts the workers and propagates directly.
func OrderedCommit[T any](workers, n, window int, produce func(id, i int) T, commit func(i int, v T) bool) {
	if n <= 0 {
		return
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if !commit(i, produce(0, i)) {
				return
			}
		}
		return
	}
	if window < workers {
		window = workers
	}
	o := &ordCommit[T]{
		n:      n,
		window: window,
		vals:   make([]T, window),
		ready:  make([]bool, window),
	}
	o.canClaim = sync.NewCond(&o.mu)
	o.canCommit = sync.NewCond(&o.mu)

	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
					o.abort()
				}
			}()
			o.produceLoop(id, produce)
		}(w)
	}

	func() {
		defer o.abort() // release workers on commit panic or abort
		for i := 0; i < n; i++ {
			v, ok := o.awaitSlot(i)
			if !ok {
				return
			}
			if !commit(i, v) {
				return
			}
		}
	}()
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
}

// ordCommit is the shared state of one OrderedCommit run: a ring of
// `window` speculation slots between the producing workers and the single
// committer.
type ordCommit[T any] struct {
	mu        sync.Mutex
	canClaim  *sync.Cond // workers wait here when the ring is full
	canCommit *sync.Cond // the committer waits here for the next slot
	n         int
	window    int
	next      int // next index to claim
	committed int // next index to commit
	vals      []T
	ready     []bool
	aborted   bool
}

func (o *ordCommit[T]) produceLoop(id int, produce func(id, i int) T) {
	for {
		o.mu.Lock()
		for o.next-o.committed >= o.window && !o.aborted {
			o.canClaim.Wait()
		}
		if o.aborted || o.next >= o.n {
			o.mu.Unlock()
			return
		}
		i := o.next
		o.next++
		o.mu.Unlock()

		v := produce(id, i)

		o.mu.Lock()
		o.vals[i%o.window] = v
		o.ready[i%o.window] = true
		if i == o.committed {
			o.canCommit.Signal()
		}
		o.mu.Unlock()
	}
}

// awaitSlot blocks until index i has been produced, then hands its value
// to the committer and frees the ring slot. ok=false means the run was
// aborted (worker panic) before the slot was filled.
func (o *ordCommit[T]) awaitSlot(i int) (v T, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := i % o.window
	for !o.ready[s] && !o.aborted {
		o.canCommit.Wait()
	}
	if !o.ready[s] {
		return v, false
	}
	v = o.vals[s]
	var zero T
	o.vals[s] = zero
	o.ready[s] = false
	o.committed = i + 1
	o.canClaim.Broadcast()
	return v, true
}

func (o *ordCommit[T]) abort() {
	o.mu.Lock()
	o.aborted = true
	o.canClaim.Broadcast()
	o.canCommit.Broadcast()
	o.mu.Unlock()
}

// Run executes fn on `workers` goroutines with ids 0..workers-1 and
// waits for all of them. A single worker runs inline on the calling
// goroutine, so serial runs (Workers=1) pay no scheduling overhead. A
// panicking worker does not crash the process: the first panic value is
// re-raised on the calling goroutine after the pool drains.
func Run(workers int, fn func(id int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
				}
			}()
			fn(id)
		}(i)
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
}
