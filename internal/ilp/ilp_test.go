package ilp

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"fastmon/internal/bitset"
	"fastmon/internal/fmerr"
)

func mkset(n int, members ...int) *bitset.Set {
	s := bitset.New(n)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

func full(n int) *bitset.Set {
	s := bitset.New(n)
	for i := 0; i < n; i++ {
		s.Add(i)
	}
	return s
}

// bruteForceCover finds the true minimum cover size by enumeration.
func bruteForceCover(sets []*bitset.Set, universe *bitset.Set) int {
	n := len(sets)
	best := n + 1
	for mask := 0; mask < 1<<uint(n); mask++ {
		u := universe.Clone()
		cnt := 0
		for j := 0; j < n; j++ {
			if mask>>uint(j)&1 == 1 {
				u.AndNot(sets[j])
				cnt++
			}
		}
		if u.Empty() && cnt < best {
			best = cnt
		}
	}
	return best
}

func TestSetCoverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		nElem := 4 + rng.Intn(10)
		nSets := 3 + rng.Intn(9)
		sets := make([]*bitset.Set, nSets)
		for i := range sets {
			s := bitset.New(nElem)
			for e := 0; e < nElem; e++ {
				if rng.Float64() < 0.35 {
					s.Add(e)
				}
			}
			sets[i] = s
		}
		universe := full(nElem)
		if !Coverable(sets, universe) {
			continue
		}
		res, err := SetCover(context.Background(), sets, universe, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal {
			t.Fatalf("trial %d: not proven optimal", trial)
		}
		want := bruteForceCover(sets, universe)
		if len(res.Selected) != want {
			t.Fatalf("trial %d: got %d sets, brute force %d", trial, len(res.Selected), want)
		}
		// Returned selection must actually cover.
		u := universe.Clone()
		for _, j := range res.Selected {
			u.AndNot(sets[j])
		}
		if !u.Empty() {
			t.Fatalf("trial %d: selection does not cover", trial)
		}
		// Greedy is never better than the optimum.
		g, err := GreedyCover(sets, universe)
		if err != nil {
			t.Fatalf("trial %d: greedy failed on coverable instance: %v", trial, err)
		}
		if len(g) < want {
			t.Fatalf("trial %d: greedy beat the optimum?!", trial)
		}
	}
}

func TestSetCoverUncoverable(t *testing.T) {
	sets := []*bitset.Set{mkset(3, 0), mkset(3, 1)}
	if _, err := SetCover(context.Background(), sets, full(3), Options{}); err == nil {
		t.Fatal("expected error for uncoverable universe")
	}
}

func TestSetCoverEmptyUniverse(t *testing.T) {
	sets := []*bitset.Set{mkset(3, 0)}
	res, err := SetCover(context.Background(), sets, bitset.New(3), Options{})
	if err != nil || len(res.Selected) != 0 || !res.Optimal {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestSetCoverDeadline(t *testing.T) {
	// A large random instance with an expired deadline must still return
	// a feasible (greedy) incumbent.
	rng := rand.New(rand.NewSource(3))
	nElem, nSets := 400, 80
	sets := make([]*bitset.Set, nSets)
	for i := range sets {
		s := bitset.New(nElem)
		for e := 0; e < nElem; e++ {
			if rng.Float64() < 0.08 {
				s.Add(e)
			}
		}
		sets[i] = s
	}
	universe := bitset.New(nElem)
	for _, s := range sets {
		universe.Or(s)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := SetCover(ctx, sets, universe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := universe.Clone()
	for _, j := range res.Selected {
		u.AndNot(sets[j])
	}
	if !u.Empty() {
		t.Fatal("deadline incumbent does not cover")
	}
	if res.Optimal || res.Degradation != fmerr.DegradeIncumbent {
		t.Fatalf("expired deadline must degrade to the incumbent: %+v", res)
	}
}

// hardCoverInstance builds a random covering instance large enough that
// the branch-and-bound search does not finish within the first poll
// window.
func hardCoverInstance(seed int64, nElem, nSets int, p float64) ([]*bitset.Set, *bitset.Set) {
	rng := rand.New(rand.NewSource(seed))
	sets := make([]*bitset.Set, nSets)
	for i := range sets {
		s := bitset.New(nElem)
		for e := 0; e < nElem; e++ {
			if rng.Float64() < p {
				s.Add(e)
			}
		}
		sets[i] = s
	}
	universe := bitset.New(nElem)
	for _, s := range sets {
		universe.Or(s)
	}
	return sets, universe
}

func TestSetCoverCanceledReturnsIncumbent(t *testing.T) {
	sets, universe := hardCoverInstance(3, 400, 80, 0.08)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the search: first poll must stop the B&B
	start := time.Now()
	res, err := SetCover(ctx, sets, universe, Options{})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled solve took %v", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if !fmerr.IsCanceled(err) || fmerr.StageOf(err) != fmerr.StageSolve {
		t.Fatalf("cancellation not stage-attributed: %v", err)
	}
	// The greedy-seeded incumbent must still be a valid cover.
	u := universe.Clone()
	for _, j := range res.Selected {
		u.AndNot(sets[j])
	}
	if !u.Empty() {
		t.Fatal("cancelled solve returned an invalid incumbent")
	}
	if res.Optimal || res.Degradation != fmerr.DegradeIncumbent {
		t.Fatalf("cancelled solve must degrade: %+v", res)
	}
}

func TestSetCoverAsyncCancelPromptReturn(t *testing.T) {
	sets, universe := hardCoverInstance(7, 900, 160, 0.05)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := SetCover(ctx, sets, universe, Options{})
	elapsed := time.Since(start)
	// Either the solve finished before the cancel (fine) or it was cut
	// mid-B&B; in both cases it must return promptly with a valid cover.
	if elapsed > 10*time.Second {
		t.Fatalf("solve ignored cancellation for %v", elapsed)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error: %v", err)
	}
	u := universe.Clone()
	for _, j := range res.Selected {
		u.AndNot(sets[j])
	}
	if !u.Empty() {
		t.Fatal("result is not a cover")
	}
}

// bruteForcePartial finds the true minimum number of sets covering ≥ quota.
func bruteForcePartial(sets []*bitset.Set, universe *bitset.Set, quota int) int {
	n := len(sets)
	best := n + 1
	for mask := 0; mask < 1<<uint(n); mask++ {
		cov := bitset.New(universe.Len())
		cnt := 0
		for j := 0; j < n; j++ {
			if mask>>uint(j)&1 == 1 {
				cov.Or(sets[j])
				cnt++
			}
		}
		if cov.IntersectionCount(universe) >= quota && cnt < best {
			best = cnt
		}
	}
	return best
}

func TestPartialCoverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		nElem := 5 + rng.Intn(8)
		nSets := 3 + rng.Intn(8)
		sets := make([]*bitset.Set, nSets)
		for i := range sets {
			s := bitset.New(nElem)
			for e := 0; e < nElem; e++ {
				if rng.Float64() < 0.4 {
					s.Add(e)
				}
			}
			sets[i] = s
		}
		universe := full(nElem)
		coverable := bitset.New(nElem)
		for _, s := range sets {
			coverable.Or(s)
		}
		maxCov := coverable.Count()
		if maxCov == 0 {
			continue
		}
		quota := 1 + rng.Intn(maxCov)
		res, err := PartialCover(context.Background(), sets, universe, quota, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForcePartial(sets, universe, quota)
		if len(res.Selected) != want {
			t.Fatalf("trial %d: got %d, brute force %d (quota %d)", trial, len(res.Selected), want, quota)
		}
		cov := bitset.New(nElem)
		for _, j := range res.Selected {
			cov.Or(sets[j])
		}
		if cov.IntersectionCount(universe) < quota {
			t.Fatalf("trial %d: quota missed", trial)
		}
	}
}

func TestPartialCoverQuotaUnreachable(t *testing.T) {
	sets := []*bitset.Set{mkset(4, 0, 1)}
	if _, err := PartialCover(context.Background(), sets, full(4), 3, Options{}); err == nil {
		t.Fatal("expected unreachable-quota error")
	}
	res, err := PartialCover(context.Background(), sets, full(4), 0, Options{})
	if err != nil || len(res.Selected) != 0 {
		t.Fatalf("quota 0: %+v %v", res, err)
	}
}

func TestGreedyCoverUncoverableError(t *testing.T) {
	sel, err := GreedyCover([]*bitset.Set{mkset(2, 0)}, full(2))
	if err == nil {
		t.Fatal("expected error for uncoverable universe")
	}
	if sel != nil {
		t.Fatalf("selection returned alongside error: %v", sel)
	}
	if fmerr.StageOf(err) != fmerr.StageSolve {
		t.Fatalf("error not stage-attributed: %v", err)
	}
}

func TestPartialCoverDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nElem, nSets := 300, 60
	sets := make([]*bitset.Set, nSets)
	for i := range sets {
		s := bitset.New(nElem)
		for e := 0; e < nElem; e++ {
			if rng.Float64() < 0.1 {
				s.Add(e)
			}
		}
		sets[i] = s
	}
	universe := bitset.New(nElem)
	for _, s := range sets {
		universe.Or(s)
	}
	quota := universe.Count() * 9 / 10
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := PartialCover(ctx, sets, universe, quota, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cov := bitset.New(nElem)
	for _, j := range res.Selected {
		cov.Or(sets[j])
	}
	if cov.IntersectionCount(universe) < quota {
		t.Fatal("deadline incumbent misses quota")
	}
	if res.Optimal || res.Degradation != fmerr.DegradeIncumbent {
		t.Fatalf("expired deadline must not claim optimality: %+v", res)
	}
}

func TestPartialCoverCanceledReturnsIncumbent(t *testing.T) {
	sets, universe := hardCoverInstance(9, 300, 60, 0.1)
	quota := universe.Count() * 9 / 10
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := PartialCover(ctx, sets, universe, quota, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	cov := bitset.New(universe.Len())
	for _, j := range res.Selected {
		cov.Or(sets[j])
	}
	if cov.IntersectionCount(universe) < quota {
		t.Fatal("cancelled solve returned an incumbent missing the quota")
	}
	if res.Optimal || res.Degradation != fmerr.DegradeIncumbent {
		t.Fatalf("cancelled solve must degrade: %+v", res)
	}
}
