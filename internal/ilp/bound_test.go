package ilp

import (
	"context"
	"math/rand"
	"testing"

	"fastmon/internal/bitset"
)

// partialOracle enumerates every selection and returns the best one under
// PartialCover's contract: fewest sets reaching the quota, then the most
// elements covered, then the lexicographically smallest index list.
func partialOracle(sets []*bitset.Set, universe *bitset.Set, quota int) []int {
	var best []int
	bestCov := -1
	cov := bitset.New(universe.Len())
	for mask := 0; mask < 1<<len(sets); mask++ {
		cov.Clear()
		var sel []int
		for j := range sets {
			if mask>>j&1 == 1 {
				cov.Or(sets[j])
				sel = append(sel, j)
			}
		}
		c := cov.IntersectionCount(universe)
		if c < quota {
			continue
		}
		switch {
		case best == nil || len(sel) < len(best),
			len(sel) == len(best) && c > bestCov,
			len(sel) == len(best) && c == bestCov && lexLess(sel, best):
			best, bestCov = sel, c
		}
	}
	return best
}

// TestPartialCoverMatchesOracle compares PartialCover's selection, not
// just its size, with the brute-force optimum under the bestList order.
// Most quotas sit within 0–3 elements of the universe, where the slack
// check prunes; the rest are mid-range.
func TestPartialCoverMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for trial := 0; trial < 48; trial++ {
		sets, universe := hardCoverInstance(rng.Int63(), 5+rng.Intn(10), 4+rng.Intn(8), 0.2+0.3*rng.Float64())
		n := universe.Count()
		if n == 0 {
			continue
		}
		quotas := []int{1 + rng.Intn(n)}
		for slack := 0; slack <= 3 && slack < n; slack++ {
			quotas = append(quotas, n-slack)
		}
		for _, quota := range quotas {
			res, err := PartialCover(context.Background(), sets, universe, quota, Options{})
			if err != nil || !res.Optimal {
				t.Fatalf("trial %d quota %d/%d: res=%+v err=%v", trial, quota, n, res, err)
			}
			if want := partialOracle(sets, universe, quota); !coverEqual(res.Selected, want) {
				t.Fatalf("trial %d quota %d/%d: got %v, oracle %v", trial, quota, n, res.Selected, want)
			}
			checked++
		}
	}
	if checked < 200 {
		t.Fatalf("only %d instances checked", checked)
	}
}

// TestSetCoverOptimalIrredundant pins SetCover's selection contract: a
// completed solve returns a minimum-size cover in which every set is
// needed. It is the smallest optimum over the columns the presolve
// keeps, which need not be the global lexicographic minimum, so the
// selection itself is not compared with an oracle.
func TestSetCoverOptimalIrredundant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 228; trial++ {
		sets, universe := hardCoverInstance(rng.Int63(), 4+rng.Intn(10), 3+rng.Intn(9), 0.35)
		res, err := SetCover(context.Background(), sets, universe, Options{})
		if err != nil || !res.Optimal {
			t.Fatalf("trial %d: res=%+v err=%v", trial, res, err)
		}
		if want := bruteForceCover(sets, universe); len(res.Selected) != want {
			t.Fatalf("trial %d: got %d sets %v, brute force %d", trial, len(res.Selected), res.Selected, want)
		}
		for _, drop := range res.Selected {
			u := universe.Clone()
			for _, j := range res.Selected {
				if j != drop {
					u.AndNot(sets[j])
				}
			}
			if u.Empty() {
				t.Fatalf("trial %d: set %d of %v is redundant", trial, drop, res.Selected)
			}
		}
	}
}

// TestPackingBoundSound checks on random instances that neither SetCover
// bound — the disjoint packing and ⌈|U|/maxGain⌉ — exceeds the
// brute-force minimum cover.
func TestPackingBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 228; trial++ {
		sets, universe := hardCoverInstance(rng.Int63(), 4+rng.Intn(12), 3+rng.Intn(9), 0.15+0.3*rng.Float64())
		if universe.Empty() {
			continue
		}
		packed, first := newPacker(sets, universe).pack(universe, len(sets))
		want := bruteForceCover(sets, universe)
		if packed > want || lowerBound(sets, universe) > want {
			t.Fatalf("trial %d: packing %d, gain bound %d, minimum cover %d",
				trial, packed, lowerBound(sets, universe), want)
		}
		if first < 0 || !universe.Has(first) {
			t.Fatalf("trial %d: branching element %d not in the universe", trial, first)
		}
	}
}

// TestSetCoverGapUsesPackingBound checks that a capped SetCover measures
// its exit gap against the packing bound. Anchor i is covered only by
// columns 2i and 2i+1, and every other element picks one column of each
// pair, one element per choice vector. No two anchors share a column, so
// the packing is k while ⌈|U|/maxGain⌉ is 3; every anchor-choosing
// k-subset misses the element of the complementary vector, so the
// optimum is k+1 and the capped search cannot prove it at the root.
func TestSetCoverGapUsesPackingBound(t *testing.T) {
	const k = 8
	n := k + 1<<k
	sets := make([]*bitset.Set, 2*k)
	for j := range sets {
		sets[j] = bitset.New(n)
		sets[j].Add(j / 2)
	}
	for v := 0; v < 1<<k; v++ {
		for i := 0; i < k; i++ {
			sets[2*i+(v>>i&1)].Add(k + v)
		}
	}
	res, err := SetCover(context.Background(), sets, full(n), Options{MaxNodes: 1})
	if err != nil || res.Optimal {
		t.Fatalf("want a capped solve, got %+v err=%v", res, err)
	}
	total := len(res.Selected)
	if want := float64(total-k) / float64(total); res.Gap != want {
		t.Fatalf("gap %v over %d sets, want (%d-%d)/%d = %v", res.Gap, total, total, k, total, want)
	}
}
