// Package par holds the small shared-parallelism primitives every
// parallel pipeline stage agrees on: the canonical worker-count clamp
// (detect, diagnose and exper all bound their pools by the same
// [1, GOMAXPROCS] rule, re-exported as core.ClampWorkers for API users)
// and the plain worker pool Run.
//
// It sits below detect/diagnose/exper in the dependency order on purpose:
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
// worker-count rule shared by fault simulation (detect.Run), diagnosis
// and the experiment suite (exper.RunSuiteCheckpointed).
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
