package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestClampWorkers(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	if got := ClampWorkers(0); got != max {
		t.Fatalf("ClampWorkers(0) = %d, want %d", got, max)
	}
	if got := ClampWorkers(-3); got != max {
		t.Fatalf("ClampWorkers(-3) = %d, want %d", got, max)
	}
	if got := ClampWorkers(1); got != 1 {
		t.Fatalf("ClampWorkers(1) = %d, want 1", got)
	}
	if got := ClampWorkers(max + 100); got != max {
		t.Fatalf("ClampWorkers(max+100) = %d, want %d", got, max)
	}
}

func TestRunReraisesWorkerPanic(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("worker panic was swallowed")
		}
	}()
	Run(3, func(id int) {
		if id == 1 {
			panic("boom")
		}
	})
}

func TestRunSingleWorkerInline(t *testing.T) {
	var ran bool
	Run(1, func(id int) {
		if id != 0 {
			t.Fatalf("id = %d", id)
		}
		ran = true
	})
	if !ran {
		t.Fatal("worker did not run")
	}
}

func TestClampWorkersFor(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := []struct{ w, items, want int }{
		{0, 10, min(max, 10)},
		{1, 10, 1},
		{4, 2, min(min(4, max), 2)},
		{4, 0, 1},  // zero items still needs one worker
		{-3, 1, 1}, // negative request clamps like zero, then item cap
		{2, 1, 1},
	}
	for _, c := range cases {
		if got := ClampWorkersFor(c.w, c.items); got != c.want {
			t.Errorf("ClampWorkersFor(%d, %d) = %d, want %d", c.w, c.items, got, c.want)
		}
	}
	if got := ClampWorkersFor(0, 1<<30); got != max {
		t.Errorf("huge item count: got %d, want GOMAXPROCS %d", got, max)
	}
}

// TestOrderedCommitInOrder checks that commit sees every index exactly
// once, in strictly increasing order, with the value its producer
// returned — for worker counts covering the inline fast path, a small
// pool and heavy oversubscription, and windows smaller and larger than n.
func TestOrderedCommitInOrder(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	const n = 500
	for _, workers := range []int{1, 2, 4, 16} {
		for _, window := range []int{1, 3, 64, 2 * n} {
			var got []int
			OrderedCommit(workers, n, window,
				func(id, i int) int { return i * i },
				func(i, v int) bool {
					if v != i*i {
						t.Fatalf("workers=%d window=%d: commit(%d) got %d", workers, window, i, v)
					}
					got = append(got, i)
					return true
				})
			if len(got) != n {
				t.Fatalf("workers=%d window=%d: committed %d of %d", workers, window, len(got), n)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("workers=%d window=%d: out of order at %d: %d", workers, window, i, v)
				}
			}
		}
	}
}

// TestOrderedCommitWindowBound checks that speculation never runs more
// than window items ahead of the commit cursor.
func TestOrderedCommitWindowBound(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	const n, workers, window = 300, 8, 16
	var committed atomic.Int64
	var maxLead atomic.Int64
	OrderedCommit(workers, n, window,
		func(id, i int) int {
			lead := int64(i) - committed.Load()
			for {
				cur := maxLead.Load()
				if lead <= cur || maxLead.CompareAndSwap(cur, lead) {
					break
				}
			}
			return i
		},
		func(i, v int) bool {
			committed.Store(int64(i) + 1)
			return true
		})
	// A producer may observe a commit cursor that is up to one commit
	// stale, so allow one extra slot of apparent lead.
	if got := maxLead.Load(); got > window+1 {
		t.Fatalf("speculation ran %d ahead, window is %d", got, window)
	}
}

// TestOrderedCommitAbort checks that commit returning false stops the run
// without committing further indices and without deadlocking producers.
func TestOrderedCommitAbort(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	for _, workers := range []int{1, 4} {
		last := -1
		OrderedCommit(workers, 1000, 8,
			func(id, i int) int { return i },
			func(i, v int) bool {
				last = i
				return i < 100
			})
		if last != 100 {
			t.Fatalf("workers=%d: aborted at %d, want 100", workers, last)
		}
	}
}

// TestOrderedCommitProducePanic checks that a panicking producer is
// re-raised on the caller after the pool drains, mirroring Run.
func TestOrderedCommitProducePanic(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	OrderedCommit(4, 100, 8,
		func(id, i int) int {
			if i == 37 {
				panic("boom")
			}
			return i
		},
		func(i, v int) bool { return true })
	t.Fatal("panic not propagated")
}
