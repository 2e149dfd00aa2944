package par

import (
	"runtime"
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
