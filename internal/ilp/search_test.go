package ilp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastmon/internal/bitset"
	"fastmon/internal/chaos"
	"fastmon/internal/fmerr"
	"fastmon/internal/obs"
)

// TestCoverSearchTreePinned pins the serial branch-and-bound tree of both
// covering solvers: the selection, the node count and the incumbent count
// of each instance. The selections and incumbent counts were recorded
// before the solvers shared one search harness; the node counts were
// re-pinned when the packing bound and the slack check landed, which
// prune only subtrees the incumbent already beats or that cannot reach
// the quota. Any change to branching order, pruning, the poll cadence or
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
		{inst{9, 110, 48, 0.10}, []int{0, 1, 2, 6, 9, 11, 13, 15, 21, 22, 24, 35, 37, 38, 43, 44, 47}, 8730, 4},
		{inst{43, 80, 30, 0.12}, []int{1, 2, 4, 7, 9, 10, 13, 15, 22, 23, 25, 27}, 53, 0},
		{inst{1, 60, 24, 0.18}, []int{2, 3, 5, 6, 8, 9, 10, 13, 17}, 388, 5},
		{inst{2, 90, 36, 0.12}, []int{0, 2, 3, 4, 7, 8, 9, 14, 17, 25, 30, 32, 35}, 686, 5},
		{inst{5, 120, 40, 0.09}, []int{1, 3, 6, 10, 11, 12, 13, 15, 17, 21, 22, 23, 24, 27, 34, 35, 37, 39}, 643, 3},
		{inst{7, 70, 28, 0.15}, []int{0, 1, 2, 3, 7, 8, 15, 20, 21, 23, 25, 26}, 79, 1},
		{inst{11, 100, 44, 0.11}, []int{0, 1, 2, 5, 7, 12, 13, 15, 22, 26, 30, 35, 36, 40, 42}, 4270, 5},
	}
	for _, c := range setCases {
		t.Run(fmt.Sprintf("SetCover/%v", c.in), func(t *testing.T) {
			sets, universe := hardCoverInstance(c.in.seed, c.in.nElem, c.in.nSet, c.in.p)
			res, err := SetCover(context.Background(), sets, universe, Options{})
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
		{inst{43, 80, 30, 0.12}, 90, []int{1, 2, 4, 7, 10, 22, 25, 27}, 58259, 0},
		{inst{1, 60, 24, 0.18}, 90, []int{0, 2, 3, 9, 17, 19, 23}, 116699, 1},
		{inst{2, 90, 36, 0.12}, 90, []int{0, 2, 3, 9, 22, 25, 30, 32}, 597261, 2},
		{inst{300, 50, 20, 0.2}, 70, []int{3, 11, 14}, 547, 0},
		{inst{301, 50, 20, 0.2}, 70, []int{6, 8, 9, 12}, 5242, 1},
		{inst{17, 80, 30, 0.12}, 80, []int{11, 15, 17, 21, 23, 26, 29}, 130280, 1},
		{inst{19, 80, 30, 0.12}, 75, []int{5, 10, 12, 23, 25, 28}, 10178, 0},
	}
	for _, c := range partialCases {
		t.Run(fmt.Sprintf("PartialCover/%v@%d%%", c.in, c.pct), func(t *testing.T) {
			sets, universe := hardCoverInstance(c.in.seed, c.in.nElem, c.in.nSet, c.in.p)
			quota := universe.Count() * c.pct / 100
			res, err := PartialCover(context.Background(), sets, universe, quota, Options{})
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
	const maxNodes = 100
	sets, universe := hardCoverInstance(11, 400, 80, 0.08)
	psets, puniverse := hardCoverInstance(17, 300, 60, 0.1)
	quota := puniverse.Count() * 9 / 10
	opts := Options{MaxNodes: maxNodes}
	res, err := SetCover(context.Background(), sets, universe, opts)
	if err != nil {
		t.Fatalf("SetCover: node cap must not error: %v", err)
	}
	if res.Optimal || res.Degradation != fmerr.DegradeIncumbent || res.Nodes <= maxNodes {
		t.Fatalf("SetCover: expected a capped incumbent, got %+v", res)
	}
	u := universe.Clone()
	for _, j := range res.Selected {
		u.AndNot(sets[j])
	}
	if !u.Empty() {
		t.Fatal("SetCover: capped incumbent does not cover")
	}

	res, err = PartialCover(context.Background(), psets, puniverse, quota, opts)
	if err != nil {
		t.Fatalf("PartialCover: node cap must not error: %v", err)
	}
	if res.Optimal || res.Degradation != fmerr.DegradeIncumbent || res.Nodes <= maxNodes {
		t.Fatalf("PartialCover: expected a capped incumbent, got %+v", res)
	}
	cov := bitset.New(puniverse.Len())
	for _, j := range res.Selected {
		cov.Or(psets[j])
	}
	if cov.IntersectionCount(puniverse) < quota {
		t.Fatal("PartialCover: capped incumbent misses the quota")
	}
}

// TestCoverNodeCapDeterministic checks that a node-capped solve is a pure
// function of its inputs: nodes are counted in serial depth-first order
// and the cap trips at the first poll window past MaxNodes, so repeated
// solves return the same selection, node count and incumbent count at any
// GOMAXPROCS.
func TestCoverNodeCapDeterministic(t *testing.T) {
	withProcs(t, 4)
	const maxNodes = 5000
	wantNodes := (maxNodes/(pollMask+1) + 1) * (pollMask + 1)
	// Both instances improve their greedy seed before the cap trips (4 and
	// 1 incumbents), so the test also pins which incumbent survives.
	sets, universe := hardCoverInstance(9, 110, 48, 0.10)
	psets, puniverse := hardCoverInstance(301, 50, 20, 0.2)
	quota := puniverse.Count() * 7 / 10
	solvers := map[string]func() (CoverResult, error){
		"SetCover": func() (CoverResult, error) {
			return SetCover(context.Background(), sets, universe, Options{MaxNodes: maxNodes})
		},
		"PartialCover": func() (CoverResult, error) {
			return PartialCover(context.Background(), psets, puniverse, quota, Options{MaxNodes: maxNodes})
		},
	}
	for name, solve := range solvers {
		ref, err := solve()
		if err != nil || ref.Optimal || ref.Nodes != wantNodes || ref.Incumbents == 0 {
			t.Fatalf("%s: want a capped solve of %d nodes that improved its seed, got %+v err=%v",
				name, wantNodes, ref, err)
		}
		for i := 1; i < 20; i++ {
			res, err := solve()
			if err != nil {
				t.Fatalf("%s run %d: %v", name, i, err)
			}
			if !coverEqual(res.Selected, ref.Selected) || res.Nodes != ref.Nodes || res.Incumbents != ref.Incumbents {
				t.Fatalf("%s run %d: got (%v, nodes %d, incumbents %d), first run (%v, nodes %d, incumbents %d)",
					name, i, res.Selected, res.Nodes, res.Incumbents, ref.Selected, ref.Nodes, ref.Incumbents)
			}
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
	exact, err := SetCover(ctx, sets, universe, Options{})
	if err != nil || !exact.Optimal {
		t.Fatalf("SetCover: %+v %v", exact, err)
	}
	psets, puniverse := hardCoverInstance(17, 300, 60, 0.1)
	capped, err := PartialCover(ctx, psets, puniverse, puniverse.Count()*9/10, Options{MaxNodes: 100})
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
// ilp.node point of a search. The panic must unwind to the caller with its
// value intact, and the call must return promptly.
func TestCoverWorkerPanicReachesCaller(t *testing.T) {
	seed := panicSeed(t)
	sets, universe := hardCoverInstance(11, 400, 80, 0.08)
	psets, puniverse := hardCoverInstance(17, 300, 60, 0.1)
	quota := puniverse.Count() * 9 / 10
	solvers := map[string]func(ctx context.Context) error{
		"SetCover": func(ctx context.Context) error {
			_, err := SetCover(ctx, sets, universe, Options{})
			return err
		},
		"PartialCover": func(ctx context.Context) error {
			_, err := PartialCover(ctx, psets, puniverse, quota, Options{})
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
				t.Fatal("solve did not return after an injected panic")
			}
		})
	}
}

// withProcs raises GOMAXPROCS for the duration of a test, so concurrent
// solves really run in parallel even on single-CPU runners.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// trippingCtx reports a healthy context for the first `after` Err calls
// and the configured error afterwards. It makes "budget expires / flow is
// cancelled mid-search" deterministic: the entry check passes, the first
// in-search poll trips.
type trippingCtx struct {
	context.Context
	calls atomic.Int64
	after int64
	err   error
}

func (c *trippingCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return c.err
	}
	return nil
}

func coverEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// concurrentMatchesSerial solves n instances one after another, then again
// from four goroutines at once, and requires every concurrent result to
// equal its serial one in Selected, Nodes and Incumbents. The suite
// fan-out runs solves of different circuits concurrently, so the solvers
// must share no mutable state (the greedy scratch pool included).
func concurrentMatchesSerial(t *testing.T, n int, solve func(i int) (CoverResult, error)) {
	t.Helper()
	withProcs(t, 4)
	ref := make([]CoverResult, n)
	for i := range ref {
		res, err := solve(i)
		if err != nil || !res.Optimal {
			t.Fatalf("instance %d: serial solve failed: %+v %v", i, res, err)
		}
		ref[i] = res
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				i := (k + g) % n // each goroutine starts at a different instance
				res, err := solve(i)
				if err != nil {
					t.Errorf("instance %d goroutine %d: %v", i, g, err)
					return
				}
				if r := ref[i]; !coverEqual(res.Selected, r.Selected) || res.Nodes != r.Nodes || res.Incumbents != r.Incumbents {
					t.Errorf("instance %d goroutine %d: got (%v, nodes %d, incumbents %d), serial (%v, nodes %d, incumbents %d)",
						i, g, res.Selected, res.Nodes, res.Incumbents, r.Selected, r.Nodes, r.Incumbents)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSetCoverParallelMatchesSerial runs SetCover solves of random
// instances concurrently and requires each to match the same solve run
// alone.
func TestSetCoverParallelMatchesSerial(t *testing.T) {
	type inst struct {
		sets     []*bitset.Set
		universe *bitset.Set
	}
	var insts []inst
	for trial := int64(0); trial < 12; trial++ {
		sets, universe := hardCoverInstance(trial+100, 60, 24, 0.18)
		if Coverable(sets, universe) && universe.Count() > 0 {
			insts = append(insts, inst{sets, universe})
		}
	}
	concurrentMatchesSerial(t, len(insts), func(i int) (CoverResult, error) {
		return SetCover(context.Background(), insts[i].sets, insts[i].universe, Options{})
	})
}

// TestPartialCoverParallelMatchesSerial is the PartialCover counterpart of
// TestSetCoverParallelMatchesSerial.
func TestPartialCoverParallelMatchesSerial(t *testing.T) {
	type inst struct {
		sets     []*bitset.Set
		universe *bitset.Set
		quota    int
	}
	var insts []inst
	for trial := int64(0); trial < 10; trial++ {
		sets, universe := hardCoverInstance(trial+300, 50, 20, 0.2)
		if n := universe.Count(); n > 0 {
			insts = append(insts, inst{sets, universe, max(n*7/10, 1)})
		}
	}
	concurrentMatchesSerial(t, len(insts), func(i int) (CoverResult, error) {
		in := insts[i]
		return PartialCover(context.Background(), in.sets, in.universe, in.quota, Options{})
	})
}

// TestSetCoverBudgetExpiryMidSearch walks the degradation ladder: the
// budget trips at the first in-search poll, the solve must return a
// feasible incumbent flagged DegradeIncumbent with a sane gap and no error
// (deadline = soft budget).
func TestSetCoverBudgetExpiryMidSearch(t *testing.T) {
	sets, universe := hardCoverInstance(11, 400, 80, 0.08)
	ctx := &trippingCtx{Context: context.Background(), after: 2, err: context.DeadlineExceeded}
	res, err := SetCover(ctx, sets, universe, Options{})
	if err != nil {
		t.Fatalf("budget expiry must not error: %v", err)
	}
	if res.Optimal || res.Degradation != fmerr.DegradeIncumbent {
		t.Fatalf("expected incumbent rung, got %+v", res)
	}
	if res.Gap < 0 || res.Gap > 1 {
		t.Fatalf("gap %f out of range", res.Gap)
	}
	u := universe.Clone()
	for _, j := range res.Selected {
		u.AndNot(sets[j])
	}
	if !u.Empty() {
		t.Fatal("budget incumbent does not cover")
	}
}

func TestSetCoverCanceledMidSearch(t *testing.T) {
	sets, universe := hardCoverInstance(13, 400, 80, 0.08)
	ctx := &trippingCtx{Context: context.Background(), after: 2, err: context.Canceled}
	res, err := SetCover(ctx, sets, universe, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if !fmerr.IsCanceled(err) || fmerr.StageOf(err) != fmerr.StageSolve {
		t.Fatalf("cancellation not stage-attributed: %v", err)
	}
	if res.Optimal || res.Degradation != fmerr.DegradeIncumbent {
		t.Fatalf("cancelled solve must degrade: %+v", res)
	}
	u := universe.Clone()
	for _, j := range res.Selected {
		u.AndNot(sets[j])
	}
	if !u.Empty() {
		t.Fatal("cancelled incumbent does not cover")
	}
}

func TestPartialCoverBudgetAndCancel(t *testing.T) {
	sets, universe := hardCoverInstance(17, 300, 60, 0.1)
	quota := universe.Count() * 9 / 10
	// Budget rung.
	bctx := &trippingCtx{Context: context.Background(), after: 2, err: context.DeadlineExceeded}
	res, err := PartialCover(bctx, sets, universe, quota, Options{})
	if err != nil {
		t.Fatalf("budget expiry must not error: %v", err)
	}
	if res.Optimal || res.Degradation != fmerr.DegradeIncumbent || res.Gap < 0 || res.Gap > 1 {
		t.Fatalf("expected incumbent rung, got %+v", res)
	}
	cov := bitset.New(universe.Len())
	for _, j := range res.Selected {
		cov.Or(sets[j])
	}
	if cov.IntersectionCount(universe) < quota {
		t.Fatal("budget incumbent misses quota")
	}
	// Cancellation rung.
	cctx := &trippingCtx{Context: context.Background(), after: 2, err: context.Canceled}
	res, err = PartialCover(cctx, sets, universe, quota, Options{})
	if !fmerr.IsCanceled(err) || fmerr.StageOf(err) != fmerr.StageSolve {
		t.Fatalf("cancellation not stage-attributed: %v", err)
	}
	if res.Optimal || res.Degradation != fmerr.DegradeIncumbent {
		t.Fatalf("cancelled solve must degrade: %+v", res)
	}
}
