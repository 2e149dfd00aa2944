package ilp

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"fastmon/internal/bitset"
	"fastmon/internal/chaos"
	"fastmon/internal/fmerr"
	"fastmon/internal/obs"
)

// TestCoverSearchTreePinned pins the serial branch-and-bound tree of both
// covering solvers: the selection, the node count and the incumbent count
// of each instance were recorded before the solvers shared one search
// harness. Any change to branching order, pruning, the poll cadence or
// the tie-break moves at least one node and fails here.
func TestCoverSearchTreePinned(t *testing.T) {
	type inst struct {
		seed        int64
		nElem, nSet int
		p           float64
	}
	setCases := []struct {
		in               inst
		sel              []int
		nodes, incumbent int
	}{
		// BenchmarkSetCover's instance.
		{inst{9, 110, 48, 0.10}, []int{0, 1, 2, 6, 9, 11, 13, 15, 21, 22, 24, 35, 37, 38, 43, 44, 47}, 19101, 4},
		{inst{43, 80, 30, 0.12}, []int{1, 2, 4, 7, 9, 10, 13, 15, 22, 23, 25, 27}, 63, 0},
		{inst{1, 60, 24, 0.18}, []int{2, 3, 5, 6, 8, 9, 10, 13, 17}, 409, 5},
		{inst{2, 90, 36, 0.12}, []int{0, 2, 3, 4, 7, 8, 9, 14, 17, 25, 30, 32, 35}, 1092, 5},
		{inst{5, 120, 40, 0.09}, []int{1, 3, 6, 10, 11, 12, 13, 15, 17, 21, 22, 23, 24, 27, 34, 35, 37, 39}, 1189, 3},
		{inst{7, 70, 28, 0.15}, []int{0, 1, 2, 3, 7, 8, 15, 20, 21, 23, 25, 26}, 79, 1},
		{inst{11, 100, 44, 0.11}, []int{0, 1, 2, 5, 7, 12, 13, 15, 22, 26, 30, 35, 36, 40, 42}, 7671, 5},
	}
	for _, c := range setCases {
		t.Run(fmt.Sprintf("SetCover/%v", c.in), func(t *testing.T) {
			sets, universe := hardCoverInstance(c.in.seed, c.in.nElem, c.in.nSet, c.in.p)
			res, err := SetCover(context.Background(), sets, universe, Options{Workers: 1})
			if err != nil || !res.Optimal {
				t.Fatalf("res=%+v err=%v", res, err)
			}
			if !coverEqual(res.Selected, c.sel) || res.Nodes != c.nodes || res.Incumbents != c.incumbent {
				t.Fatalf("got (%v, nodes %d, incumbents %d), pinned (%v, nodes %d, incumbents %d)",
					res.Selected, res.Nodes, res.Incumbents, c.sel, c.nodes, c.incumbent)
			}
		})
	}
	partialCases := []struct {
		in               inst
		pct              int // quota as a percentage of the coverable elements
		sel              []int
		nodes, incumbent int
	}{
		// BenchmarkPartialCover's instance.
		{inst{43, 80, 30, 0.12}, 90, []int{1, 2, 4, 7, 10, 22, 25, 27}, 101123, 0},
		{inst{1, 60, 24, 0.18}, 90, []int{0, 2, 3, 9, 17, 19, 23}, 238382, 1},
		{inst{2, 90, 36, 0.12}, 90, []int{0, 2, 3, 9, 22, 25, 30, 32}, 1248099, 2},
		{inst{300, 50, 20, 0.2}, 70, []int{3, 11, 14}, 563, 0},
		{inst{301, 50, 20, 0.2}, 70, []int{6, 8, 9, 12}, 5636, 1},
		{inst{17, 80, 30, 0.12}, 80, []int{11, 15, 17, 21, 23, 26, 29}, 150179, 1},
		{inst{19, 80, 30, 0.12}, 75, []int{5, 10, 12, 23, 25, 28}, 10209, 0},
	}
	for _, c := range partialCases {
		t.Run(fmt.Sprintf("PartialCover/%v@%d%%", c.in, c.pct), func(t *testing.T) {
			sets, universe := hardCoverInstance(c.in.seed, c.in.nElem, c.in.nSet, c.in.p)
			quota := universe.Count() * c.pct / 100
			res, err := PartialCover(context.Background(), sets, universe, quota, Options{Workers: 1})
			if err != nil || !res.Optimal {
				t.Fatalf("res=%+v err=%v", res, err)
			}
			if !coverEqual(res.Selected, c.sel) || res.Nodes != c.nodes || res.Incumbents != c.incumbent {
				t.Fatalf("got (%v, nodes %d, incumbents %d), pinned (%v, nodes %d, incumbents %d)",
					res.Selected, res.Nodes, res.Incumbents, c.sel, c.nodes, c.incumbent)
			}
		})
	}
}

// TestCoverNodeCapDegrades checks Options.MaxNodes on both solvers: a
// capped search stops, keeps a feasible incumbent, reports the incumbent
// rung and returns no error, exactly like a spent deadline.
func TestCoverNodeCapDegrades(t *testing.T) {
	withProcs(t, 2)
	const maxNodes = 100
	sets, universe := hardCoverInstance(11, 400, 80, 0.08)
	psets, puniverse := hardCoverInstance(17, 300, 60, 0.1)
	quota := puniverse.Count() * 9 / 10
	for _, w := range []int{1, 2} {
		opts := Options{MaxNodes: maxNodes, Workers: w}
		res, err := SetCover(context.Background(), sets, universe, opts)
		if err != nil {
			t.Fatalf("SetCover workers=%d: node cap must not error: %v", w, err)
		}
		if res.Optimal || res.Degradation != fmerr.DegradeIncumbent || res.Nodes <= maxNodes {
			t.Fatalf("SetCover workers=%d: expected a capped incumbent, got %+v", w, res)
		}
		u := universe.Clone()
		for _, j := range res.Selected {
			u.AndNot(sets[j])
		}
		if !u.Empty() {
			t.Fatalf("SetCover workers=%d: capped incumbent does not cover", w)
		}

		res, err = PartialCover(context.Background(), psets, puniverse, quota, opts)
		if err != nil {
			t.Fatalf("PartialCover workers=%d: node cap must not error: %v", w, err)
		}
		if res.Optimal || res.Degradation != fmerr.DegradeIncumbent || res.Nodes <= maxNodes {
			t.Fatalf("PartialCover workers=%d: expected a capped incumbent, got %+v", w, res)
		}
		cov := bitset.New(puniverse.Len())
		for _, j := range res.Selected {
			cov.Or(psets[j])
		}
		if cov.IntersectionCount(puniverse) < quota {
			t.Fatalf("PartialCover workers=%d: capped incumbent misses the quota", w)
		}
	}
}

// TestCoverRecordsEffort checks that the harness reports each solve's
// effort to the context observer exactly as it reports it in the
// CoverResult: one proven SetCover and one node-capped PartialCover.
func TestCoverRecordsEffort(t *testing.T) {
	o := obs.New(nil)
	ctx := obs.With(context.Background(), o)
	sets, universe := hardCoverInstance(9, 110, 48, 0.10)
	exact, err := SetCover(ctx, sets, universe, Options{Workers: 1})
	if err != nil || !exact.Optimal {
		t.Fatalf("SetCover: %+v %v", exact, err)
	}
	psets, puniverse := hardCoverInstance(17, 300, 60, 0.1)
	capped, err := PartialCover(ctx, psets, puniverse, puniverse.Count()*9/10, Options{MaxNodes: 100, Workers: 1})
	if err != nil || capped.Optimal {
		t.Fatalf("PartialCover: %+v %v", capped, err)
	}
	for name, want := range map[string]int64{
		"ilp.solves":     2,
		"ilp.nodes":      int64(exact.Nodes + capped.Nodes),
		"ilp.incumbents": int64(exact.Incumbents + capped.Incumbents),
		"ilp.degraded":   1,
	} {
		if got := o.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := o.Gauge("ilp.last_gap").Value(); got != capped.Gap {
		t.Errorf("ilp.last_gap = %v, want the capped solve's gap %v", got, capped.Gap)
	}
	if got := o.Gauge("ilp.workers").Value(); got != 1 {
		t.Errorf("ilp.workers = %v, want 1", got)
	}
}

// panicSeed returns a chaos seed whose first ilp.node decision at rate 1
// is a panic (decisions are a pure function of seed, point and call
// index, so a throwaway injector previews them).
func panicSeed(t *testing.T) int64 {
	t.Helper()
	for seed := int64(1); seed < 100; seed++ {
		in := chaos.New(chaos.Config{Seed: seed, Rates: map[string]float64{ptNode: 1}, Budget: 1})
		if func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			in.Disturb(context.Background(), ptNode)
			return false
		}() {
			return seed
		}
	}
	t.Fatal("no seed in [1,100) panics on its first ilp.node decision")
	return 0
}

// TestCoverWorkerPanicReachesCaller injects exactly one panic at the
// ilp.node point of a two-worker search. The panic must reach the caller,
// and the call must return promptly: the panicking worker stops its peer
// and aborts the frontier, so no worker is left expanding its subtree or
// waiting in Pop.
func TestCoverWorkerPanicReachesCaller(t *testing.T) {
	withProcs(t, 2)
	seed := panicSeed(t)
	sets, universe := hardCoverInstance(11, 400, 80, 0.08)
	psets, puniverse := hardCoverInstance(17, 300, 60, 0.1)
	quota := puniverse.Count() * 9 / 10
	solvers := map[string]func(ctx context.Context) error{
		"SetCover": func(ctx context.Context) error {
			_, err := SetCover(ctx, sets, universe, Options{Workers: 2})
			return err
		},
		"PartialCover": func(ctx context.Context) error {
			_, err := PartialCover(ctx, psets, puniverse, quota, Options{Workers: 2})
			return err
		},
	}
	for name, solve := range solvers {
		t.Run(name, func(t *testing.T) {
			in := chaos.New(chaos.Config{Seed: seed, Rates: map[string]float64{ptNode: 1}, Budget: 1})
			ctx := chaos.With(context.Background(), in)
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				if err := solve(ctx); err != nil {
					t.Errorf("solve returned an error instead of panicking: %v", err)
				}
			}()
			select {
			case r := <-done:
				var inj *chaos.Injected
				if err, ok := r.(error); !ok || !errors.As(err, &inj) || inj.Point != ptNode || inj.Kind != chaos.KindPanic {
					t.Fatalf("recovered %v (%T), want the injected ilp.node panic", r, r)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("solve did not return after a worker panic: a worker is stranded")
			}
		})
	}
}
