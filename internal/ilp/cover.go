package ilp

import (
	"context"
	"sort"

	"fastmon/internal/bitset"
	"fastmon/internal/fmerr"
)

// CoverResult is the outcome of a covering solve.
type CoverResult struct {
	// Selected holds the chosen set indices, ascending.
	Selected []int
	// Optimal reports whether optimality was proven (false after a
	// deadline abort, in which case Selected is the best incumbent).
	Optimal bool
	// Nodes counts branch-and-bound nodes.
	Nodes int
	// Incumbents counts incumbent improvements found by the search (the
	// greedy seed is not counted).
	Incumbents int
	// Gap is the relative bound gap at exit: zero when optimality was
	// proven, (|incumbent| - rootBound)/|incumbent| after an abort.
	Gap float64
	// Degradation reports the result-quality rung: exact when optimality
	// was proven, incumbent after a budget or cancellation abort.
	Degradation fmerr.Degradation
}

// GreedyCover returns a feasible cover by repeatedly choosing the set with
// the largest number of still-uncovered elements — the heuristic selection
// of [17] that the paper's Table II compares against (column "heur.").
// It returns a stage-attributed error if the universe is not coverable.
func GreedyCover(sets []*bitset.Set, universe *bitset.Set) ([]int, error) {
	uncovered := universe.Clone()
	var out []int
	for !uncovered.Empty() {
		best, bestGain := -1, 0
		for i, s := range sets {
			if g := s.IntersectionCount(uncovered); g > bestGain {
				best, bestGain = i, g
			}
		}
		if best < 0 {
			return nil, fmerr.Errorf(fmerr.StageSolve, "greedy",
				"universe not coverable: %d elements unreachable", uncovered.Count())
		}
		out = append(out, best)
		uncovered.AndNot(sets[best])
	}
	sort.Ints(out)
	return out, nil
}

// Coverable reports whether the universe is covered by the union of sets.
func Coverable(sets []*bitset.Set, universe *bitset.Set) bool {
	u := universe.Clone()
	for _, s := range sets {
		u.AndNot(s)
	}
	return u.Empty()
}

// candList is one depth's candidate list of the SetCover search: covering
// set indices and their gains, sorted together.
type candList struct{ idx, gain []int }

// SetCover solves minimum set cover exactly by branch-and-bound with
// covering presolve, on the search harness shared with PartialCover
// (solve.go). A completed solve returns a minimum-size cover in which
// every set is needed: the lexicographically smallest optimum among the
// covers made of the presolve's forced columns and the columns it keeps.
// The essential-column and dominance passes drop columns, so this need
// not be the smallest optimum over all sets. It returns an error when the
// universe is not coverable. An expired deadline (the paper's solver timeout) returns the
// best incumbent with a nil error; cancellation returns the incumbent
// together with an error wrapping context.Canceled.
func SetCover(ctx context.Context, sets []*bitset.Set, universe *bitset.Set, opts Options) (CoverResult, error) {
	if !Coverable(sets, universe) {
		return CoverResult{}, fmerr.Errorf(fmerr.StageSolve, "setcover",
			"universe not coverable by the given sets")
	}
	if res, done, err := begin(ctx, "setcover", func() ([]int, error) {
		return GreedyCover(sets, universe)
	}); done {
		return res, err
	}
	uncovered := universe.Clone()
	alive := make([]bool, len(sets))
	for i := range alive {
		alive[i] = true
	}
	var chosen []int
	// Pooled masked copies for the dominance pass, allocated lazily on
	// the first pass and refreshed in place (CopyFrom) as uncovered
	// shrinks — the presolve loop used to clone every set per iteration.
	var maskPool []*bitset.Set

	// Presolve loop: essential columns and column dominance.
	for {
		changed := false
		// Essential: an element covered by exactly one alive set forces
		// that set into the solution.
		for e := uncovered.NextSet(0); e >= 0; e = uncovered.NextSet(e + 1) {
			cnt, only := 0, -1
			for j, s := range sets {
				if alive[j] && s.Has(e) {
					cnt++
					only = j
					if cnt > 1 {
						break
					}
				}
			}
			if cnt == 1 {
				chosen = append(chosen, only)
				uncovered.AndNot(sets[only])
				alive[only] = false
				changed = true
				break // uncovered changed; restart scan
			}
		}
		if changed {
			continue
		}
		// Drop sets that no longer help.
		for j, s := range sets {
			if alive[j] && s.IntersectionCount(uncovered) == 0 {
				alive[j] = false
			}
		}
		// Column dominance (bounded effort): a set whose uncovered part
		// is a subset of another's can be dropped. Columns are ordered by
		// popcount — a column can only be dominated by one at least as
		// large — and pairs are screened by a 64-bit signature
		// (a ⊆ b requires fp(a) &^ fp(b) == 0) before the word-level
		// subset test runs.
		aliveIdx := aliveList(alive)
		if len(aliveIdx) <= 1024 {
			if maskPool == nil {
				maskPool = make([]*bitset.Set, len(sets))
			}
			type col struct {
				j   int
				cnt int
				fp  uint64
			}
			cols := make([]col, 0, len(aliveIdx))
			for _, j := range aliveIdx {
				m := maskPool[j]
				if m == nil {
					m = bitset.New(0)
					maskPool[j] = m
				}
				m.CopyFrom(sets[j])
				m.And(uncovered)
				cols = append(cols, col{j: j, cnt: m.Count(), fp: m.Fingerprint()})
			}
			sort.Slice(cols, func(a, b int) bool {
				if cols[a].cnt != cols[b].cnt {
					return cols[a].cnt < cols[b].cnt
				}
				return cols[a].j < cols[b].j
			})
			for a := range cols {
				ca := cols[a]
				if !alive[ca.j] {
					continue
				}
				for b := a + 1; b < len(cols); b++ {
					cb := cols[b]
					if !alive[cb.j] {
						continue
					}
					if ca.fp&^cb.fp != 0 {
						continue // signature rules out ca ⊆ cb
					}
					if !maskPool[ca.j].SubsetOf(maskPool[cb.j]) {
						continue
					}
					if ca.cnt == cb.cnt {
						// Equal masked sets: keep the smaller index.
						alive[cb.j] = false
						changed = true
						continue
					}
					alive[ca.j] = false
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}

	if uncovered.Empty() {
		sort.Ints(chosen)
		recordSolve(ctx, 0, 0, true, 0)
		return CoverResult{Selected: chosen, Optimal: true}, nil
	}

	aliveIdx := aliveList(alive)
	sub := make([]*bitset.Set, len(aliveIdx))
	for i, j := range aliveIdx {
		s := sets[j].Clone()
		s.And(uncovered)
		sub[i] = s
	}
	// Greedy incumbent. Coverability was established above, so a greedy
	// failure here is an internal inconsistency worth surfacing.
	incumbent, err := GreedyCover(sub, uncovered)
	if err != nil {
		return CoverResult{}, err
	}

	// Branch on the uncovered element with the fewest covering sets
	// (index ascending on ties: the first uncovered element of the
	// packer's static order); children try each covering set in
	// decreasing gain order (index ascending on ties). A node is pruned
	// only when its bound — the larger of ⌈|unc|/maxGain⌉ and the
	// disjoint packing — shows every completion strictly worse than the
	// incumbent, so every optimal cover stays reachable and the bestList
	// tie-break picks the smallest of them in its total order. The DFS is
	// strictly nested, so one uncovered set and one candidate list per
	// depth replace per-node clones and sorts.
	pk := newPacker(sub, uncovered)
	s := newSearch(ctx, "setcover", "ilp.cover", opts, incumbent, 0)
	var (
		uncAt   []*bitset.Set
		candsAt []candList
		dfs     func(unc *bitset.Set, cur []int)
	)
	dfs = func(unc *bitset.Set, cur []int) {
		if !s.enter() {
			return
		}
		if unc.Empty() {
			s.offer(cur, 0)
			return
		}
		slack := s.best.bound() - len(cur) // sets a completion may add
		if lowerBound(sub, unc) > slack {
			return
		}
		packed, pickE := pk.pack(unc, slack)
		if packed > slack {
			return
		}
		depth := len(cur)
		for len(candsAt) <= depth {
			candsAt = append(candsAt, candList{})
		}
		cands := append(candsAt[depth].idx[:0], pk.coverOf[pickE]...)
		gains := candsAt[depth].gain[:0]
		for _, si := range cands {
			gains = append(gains, sub[si].IntersectionCount(unc))
		}
		// Insertion sort by (gain descending, index ascending): the
		// same total order the sort.Slice comparator produced.
		for i := 1; i < len(cands); i++ {
			ci, gi := cands[i], gains[i]
			j := i - 1
			for j >= 0 && (gains[j] < gi || (gains[j] == gi && cands[j] > ci)) {
				cands[j+1], gains[j+1] = cands[j], gains[j]
				j--
			}
			cands[j+1], gains[j+1] = ci, gi
		}
		candsAt[depth] = candList{idx: cands, gain: gains}
		for _, si := range cands {
			next := depthSet(&uncAt, depth, universe.Len())
			next.SetAndNot(unc, sub[si])
			cur = append(cur, si)
			dfs(next, cur)
			cur = cur[:len(cur)-1]
		}
	}
	dfs(uncovered, nil)

	sel := append([]int(nil), chosen...)
	for _, si := range s.best.snapshot() {
		sel = append(sel, aliveIdx[si])
	}
	sort.Ints(sel)
	packed, _ := pk.pack(uncovered, len(sub))
	return s.result(sel, len(chosen)+max(lowerBound(sub, uncovered), packed))
}

// lowerBound returns ⌈|unc|/maxGain⌉, a lower bound on the number of
// additional sets needed, where maxGain is the largest number of elements
// of unc that any one set covers: each further set covers at most maxGain
// of them. An uncoverable remainder (maxGain 0) returns a bound large
// enough to prune the subtree.
func lowerBound(sub []*bitset.Set, unc *bitset.Set) int {
	maxGain := 0
	for _, s := range sub {
		if g := s.IntersectionCount(unc); g > maxGain {
			maxGain = g
		}
	}
	if maxGain == 0 {
		return 1 << 20 // uncoverable remainder: prune hard
	}
	u := unc.Count()
	return (u + maxGain - 1) / maxGain
}

// packer holds SetCover's static element–column incidence and computes
// the disjoint-packing bound: a set of uncovered elements no two of which
// share a covering column needs one distinct column each, so its size is
// a lower bound on the columns a completion adds.
type packer struct {
	// order lists the root's uncovered elements by (number of covering
	// columns, index). Column counts never change below the root — a
	// covering column of an uncovered element always meets the uncovered
	// set — so the first uncovered element of order is the element with
	// the fewest covering columns that the per-node count used to find.
	order   []int
	coverOf [][]int // element -> covering columns (indices into sub)
	stamp   []int   // column -> generation of the pack that claimed it
	gen     int
}

// newPacker indexes the columns sub, each already restricted to the
// root's uncovered set unc.
func newPacker(sub []*bitset.Set, unc *bitset.Set) *packer {
	p := &packer{
		order:   unc.Members(nil),
		coverOf: make([][]int, unc.Len()),
		stamp:   make([]int, len(sub)),
	}
	for i, s := range sub {
		for e := s.NextSet(0); e >= 0; e = s.NextSet(e + 1) {
			p.coverOf[e] = append(p.coverOf[e], i)
		}
	}
	sort.Slice(p.order, func(a, b int) bool {
		ea, eb := p.order[a], p.order[b]
		if da, db := len(p.coverOf[ea]), len(p.coverOf[eb]); da != db {
			return da < db
		}
		return ea < eb
	})
	return p
}

// pack greedily packs the elements of unc in static order, taking each
// element none of whose covering columns an earlier packed element
// claimed. It returns the packing size, stopping early once it exceeds
// limit, and the first uncovered element of the order (the branching
// element; -1 when unc is empty). One generation stamp per call replaces
// clearing the claims, so a call allocates nothing.
func (p *packer) pack(unc *bitset.Set, limit int) (size, first int) {
	p.gen++
	first = -1
	for _, e := range p.order {
		if !unc.Has(e) {
			continue
		}
		if first < 0 {
			first = e
		}
		cols := p.coverOf[e]
		free := true
		for _, c := range cols {
			if p.stamp[c] == p.gen {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		for _, c := range cols {
			p.stamp[c] = p.gen
		}
		if size++; size > limit {
			break
		}
	}
	return size, first
}

// depthSet returns the depth-d set of a per-depth scratch stack, growing
// the stack with empty n-bit sets as needed.
func depthSet(stack *[]*bitset.Set, d, n int) *bitset.Set {
	for len(*stack) <= d {
		*stack = append(*stack, bitset.New(n))
	}
	return (*stack)[d]
}

func aliveList(alive []bool) []int {
	var out []int
	for i, a := range alive {
		if a {
			out = append(out, i)
		}
	}
	return out
}

// coverPool recycles the masked-set scratch of GreedyPartialCover across
// calls; the schedule builder runs one partial cover per period candidate.
var coverPool bitset.Pool

// GreedyPartialCover picks sets by maximum marginal gain until at least
// quota elements of the universe are covered. It returns an error if the
// quota exceeds the coverable count.
func GreedyPartialCover(sets []*bitset.Set, universe *bitset.Set, quota int) ([]int, error) {
	covered := bitset.New(universe.Len())
	// Mask each set to the universe once; the per-round marginal gain is
	// then one word-level sweep instead of a Clone+And+AndNot+Count pass
	// per set per round.
	masked := make([]*bitset.Set, len(sets))
	for i, s := range sets {
		m := coverPool.CloneOf(s)
		m.And(universe)
		masked[i] = m
	}
	defer func() {
		for _, m := range masked {
			coverPool.Put(m)
		}
	}()
	var out []int
	for covered.IntersectionCount(universe) < quota {
		best, bestGain := -1, 0
		for i, m := range masked {
			if g := m.AndNotCount(covered); g > bestGain {
				best, bestGain = i, g
			}
		}
		if best < 0 {
			return nil, fmerr.Errorf(fmerr.StageSolve, "greedy-partial",
				"quota %d unreachable (covered %d)", quota, covered.IntersectionCount(universe))
		}
		out = append(out, best)
		covered.Or(sets[best])
	}
	sort.Ints(out)
	return out, nil
}

// PartialCover finds a minimum number of sets covering at least quota
// elements of the universe (the Table III "cov ≥ x%" selection) by
// include/exclude branch-and-bound, pruned by a sum-of-largest-sets bound
// and a slack check. It has no presolve, so a completed solve returns the
// global optimum under the bestList order: fewest sets, then most
// elements covered, then the lexicographically smallest index list. It
// shares SetCover's search harness, determinism and context contract.
func PartialCover(ctx context.Context, sets []*bitset.Set, universe *bitset.Set, quota int, opts Options) (CoverResult, error) {
	if quota <= 0 {
		return CoverResult{Optimal: true}, nil
	}
	incumbent, err := GreedyPartialCover(sets, universe, quota)
	if err != nil {
		return CoverResult{}, err
	}
	if res, done, err := begin(ctx, "partialcover", func() ([]int, error) {
		return incumbent, nil
	}); done {
		return res, err
	}

	// Restrict sets to the universe once; sizes are static afterwards, so
	// they are computed once here instead of per node in the bound.
	sub := make([]*bitset.Set, len(sets))
	size := make([]int, len(sets))
	for i, s := range sets {
		c := s.Clone()
		c.And(universe)
		sub[i] = c
		size[i] = c.Count()
	}
	// Order sets by decreasing size for the bound and the branching.
	order := make([]int, len(sub))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := size[order[a]], size[order[b]]
		if ca != cb {
			return ca > cb
		}
		return order[a] < order[b]
	})
	// prefix[i] is the total size of the i largest sets: the per-node
	// sum-of-largest-sets bound becomes a binary search over these sums
	// instead of a popcount loop.
	prefix := make([]int64, len(order)+1)
	for i, oi := range order {
		prefix[i+1] = prefix[i] + int64(size[oi])
	}
	// suffix[pos] is the union of the sets from order[pos] on: a node at
	// pos can cover no more than covered ∪ suffix[pos], so the slack
	// check prunes it when that union misses the quota — more elements
	// are already lost than the quota allows.
	suffix := make([]*bitset.Set, len(order)+1)
	suffix[len(order)] = bitset.New(universe.Len())
	for pos := len(order) - 1; pos >= 0; pos-- {
		suffix[pos] = bitset.New(universe.Len())
		suffix[pos].SetOr(suffix[pos+1], sub[order[pos]])
	}

	seedCov := bitset.New(universe.Len())
	for _, si := range incumbent {
		seedCov.Or(sub[si])
	}
	// Include children at depth d finish before the parent includes again
	// at d, so one covered set per depth suffices.
	s := newSearch(ctx, "partialcover", "ilp.partial", opts, incumbent, seedCov.Count())
	var coveredAt []*bitset.Set
	// The exclude branch is tail-recursive (same covered set, next
	// position), so it runs as a loop; each iteration is one node. The
	// include branch recurses when "take order[pos]" has a positive
	// marginal gain — an optimal selection never contains a
	// zero-marginal set (dropping it would shrink the solution), so the
	// filter cannot hide an optimum from the tie-break.
	var dfs func(pos int, cur []int, covered *bitset.Set, cnt int)
	dfs = func(pos int, cur []int, covered *bitset.Set, cnt int) {
		// m tracks the bound's prefix-sum crossing point. Along the
		// exclude chain the deficit is constant and prefix[pos] grows,
		// so the crossing point only moves right: advancing it linearly
		// from the previous node costs O(1) amortized per node where a
		// fresh search would pay O(log) every time.
		m := pos + 1
		for {
			if !s.enter() {
				return
			}
			if cnt >= quota {
				s.offer(cur, cnt)
				return
			}
			bnd := s.best.bound()
			if len(cur)+1 > bnd { // any completion costs ≥ len(cur)+1
				return
			}
			if pos >= len(order) {
				return
			}
			// Bound: adding the k largest remaining sets gains at most
			// the sum of their sizes; m-pos is the smallest k whose size
			// prefix reaches the deficit.
			target := prefix[pos] + int64(quota-cnt)
			for m < len(order) && prefix[m] < target {
				m++
			}
			if prefix[m] < target {
				return // even taking every remaining set falls short
			}
			if len(cur)+(m-pos) > bnd {
				return
			}
			if covered.OrCount(suffix[pos]) < quota {
				return // slack check: the quota is out of reach
			}
			si := order[pos]
			if marginal := sub[si].AndNotCount(covered); marginal > 0 {
				nc := depthSet(&coveredAt, len(cur), universe.Len())
				nc.SetOr(covered, sub[si])
				cur = append(cur, si)
				dfs(pos+1, cur, nc, cnt+marginal)
				cur = cur[:len(cur)-1]
			}
			pos++ // exclude order[pos]: same covered set, next position
		}
	}
	dfs(0, nil, bitset.New(universe.Len()), 0)
	// Root bound for the exit gap: covering the quota needs at least as
	// many sets as the largest-first size prefix reaching it.
	rootLB := 0
	for rootLB < len(order) && prefix[rootLB] < int64(quota) {
		rootLB++
	}
	return s.result(s.best.snapshot(), rootLB)
}
