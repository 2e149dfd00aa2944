package ilp

import (
	"context"
	"sort"
	"strconv"

	"fastmon/internal/chaos"
	"fastmon/internal/fmerr"
	"fastmon/internal/obs"
	"fastmon/internal/obs/flight"
)

// Chaos injection points of the solvers: an error-capable point at solve
// entry, and panic/delay-only disturbances (the dfs has no error return
// path) at node expansion and incumbent publication. An injected panic
// unwinds the search to the caller exactly as a real solver bug would.
var (
	ptSolve     = chaos.Register("ilp.solve", fmerr.StageSolve)
	ptNode      = chaos.Register("ilp.node", fmerr.StageSolve)
	ptIncumbent = chaos.Register("ilp.incumbent", fmerr.StageSolve)
)

// Options controls the covering solvers, SetCover and PartialCover. The
// solver time budget is carried by the context: pass a context with a
// deadline to mirror the paper's 1-hour solver timeout. An expired
// deadline aborts the search and returns the best incumbent found so far
// (Optimal=false, Degradation=incumbent); outright cancellation
// additionally returns the context error so callers can distinguish
// "budget spent, result degraded" from "stop everything".
//
// Each solve is a single-threaded depth-first search: independent solves
// run concurrently only as independent calls (the suite fan-out over
// circuits). A completed solve returns the bestList-minimal optimum of
// the instance it searches: for PartialCover the whole instance, for
// SetCover the columns its presolve keeps.
type Options struct {
	// MaxNodes bounds the branch-and-bound tree (0 = unlimited). Nodes
	// are counted in serial depth-first order and the cap is checked once
	// per pollMask+1-node poll window, so a capped search stops at the
	// first window boundary past MaxNodes: its incumbent and node count
	// are a pure function of the inputs. It degrades like a spent
	// deadline.
	MaxNodes int
}

// pollMask controls the cancellation poll granularity: the context is
// checked every pollMask+1 branch-and-bound nodes, so a cancelled solve
// returns within a small multiple of one node expansion.
const pollMask = 63

// stopReason classifies why a search stopped early.
type stopReason int

const (
	stopNone     stopReason = iota
	stopBudget              // deadline expired or node cap hit: degrade, no error
	stopCanceled            // context canceled: degrade and report the error
)

// checkCtx maps the context state to a stop reason. An expired deadline is
// the paper's soft solver timeout (return the incumbent, keep going with
// the flow); explicit cancellation must surface as an error.
func checkCtx(ctx context.Context) stopReason {
	switch ctx.Err() {
	case nil:
		return stopNone
	case context.Canceled:
		return stopCanceled
	default: // context.DeadlineExceeded
		return stopBudget
	}
}

// recordSolve rolls one exact solve's effort into the context observer:
// solver counters (nodes expanded, incumbent updates), the per-solve
// node histogram, and — for early-aborted solves — the degraded-solve
// counter and the bound gap at exit.
func recordSolve(ctx context.Context, nodes, incumbents int, optimal bool, gap float64) {
	o := obs.From(ctx)
	if o == nil {
		return
	}
	o.Counter("ilp.solves").Inc()
	o.Counter("ilp.nodes").Add(int64(nodes))
	o.Counter("ilp.incumbents").Add(int64(incumbents))
	o.Histogram("ilp.solve_nodes").Observe(int64(nodes))
	if !optimal {
		o.Counter("ilp.degraded").Inc()
		o.Gauge("ilp.last_gap").Set(gap)
	}
}

// begin is the entry protocol of a covering solve: the ilp.solve chaos
// point, then the entry budget check. With the budget already spent (or
// the flow cancelled) the greedy cover is the whole result and done is
// true; op names the solver in wrapped errors.
func begin(ctx context.Context, op string, greedy func() ([]int, error)) (res CoverResult, done bool, err error) {
	if err := chaos.Point(ctx, ptSolve); err != nil {
		return res, true, fmerr.Wrap(fmerr.StageSolve, op, err)
	}
	s := checkCtx(ctx)
	if s == stopNone {
		return res, false, nil
	}
	if res.Selected, err = greedy(); err != nil {
		return CoverResult{}, true, err
	}
	res.Gap, res.Degradation = 1, fmerr.DegradeIncumbent
	recordSolve(ctx, 0, 0, false, 1)
	if s == stopCanceled {
		err = fmerr.Wrap(fmerr.StageSolve, op, ctx.Err())
	}
	return res, true, err
}

// search is the branch-and-bound harness shared by SetCover and
// PartialCover: the incumbent, the node and incumbent tallies, the poll of
// the context and node cap, and the CoverResult. A solver runs its own
// depth-first recursion from the root, calling enter at every node and
// offer at every feasible leaf.
type search struct {
	ctx      context.Context
	inj      *chaos.Injector // resolved once; nil is a valid no-op
	op       string          // solver name in wrapped errors
	event    string          // flight event name of incumbent publications
	maxNodes int64
	best     bestList
	frec     *flight.Recorder

	nodes, incumbents int64
	stop              stopReason
}

// newSearch prepares a search seeded with a sorted incumbent and its
// score (see bestList).
func newSearch(ctx context.Context, op, event string, opts Options, seed []int, score int) *search {
	return &search{
		ctx:      ctx,
		inj:      chaos.From(ctx),
		op:       op,
		event:    event,
		maxNodes: int64(opts.MaxNodes),
		best:     bestList{sel: append([]int(nil), seed...), score: score},
		frec:     obs.From(ctx).Flight(),
	}
}

// enter accounts one node and reports whether to expand it. It is the
// whole per-node cost of the harness and is inlined into the solvers'
// dfs; the context and the node cap are read only by poll, once per
// pollMask+1 nodes. After a stop every further call returns false, so each
// recursion level unwinds without expanding.
func (s *search) enter() bool {
	if s.stop != stopNone {
		return false
	}
	s.nodes++
	return s.nodes&pollMask != 0 || s.poll()
}

// poll is the once-per-window slow path: check the context and the node
// cap, and record the first stop reason.
func (s *search) poll() bool {
	r := checkCtx(s.ctx)
	if r == stopNone {
		s.inj.Disturb(s.ctx, ptNode)
		if s.maxNodes > 0 && s.nodes > s.maxNodes {
			r = stopBudget
		}
	}
	s.stop = r
	return r == stopNone
}

// offer publishes a leaf selection with its score as a candidate
// incumbent.
func (s *search) offer(cur []int, score int) {
	s.inj.Disturb(s.ctx, ptIncumbent)
	if s.best.offer(cur, score) {
		s.incumbents++
		s.frec.Record(flight.Event{Kind: flight.KindIncumbent, Name: s.event, Stage: "solve",
			Detail: strconv.Itoa(len(cur)) + " sets", Value: s.incumbents})
	}
}

// result turns the finished search into a CoverResult for the final
// selection sel (sorted ascending): optimal unless a stop reason was
// recorded, in which case the gap is measured against the root lower
// bound rootLB. It records the solve's effort and wraps a cancellation.
func (s *search) result(sel []int, rootLB int) (CoverResult, error) {
	res := CoverResult{
		Selected:   sel,
		Optimal:    s.stop == stopNone,
		Nodes:      int(s.nodes),
		Incumbents: int(s.incumbents),
	}
	if !res.Optimal {
		res.Degradation = fmerr.DegradeIncumbent
		if total := len(sel); total > rootLB && total > 0 {
			res.Gap = float64(total-rootLB) / float64(total)
		}
	}
	recordSolve(s.ctx, res.Nodes, res.Incumbents, res.Optimal, res.Gap)
	if s.stop == stopCanceled {
		return res, fmerr.Wrap(fmerr.StageSolve, s.op, s.ctx.Err())
	}
	return res, nil
}

// bestList is the incumbent of a covering search, updated under a total
// order: shorter wins, equal length prefers the higher score (PartialCover
// passes the covered count, so equal-size selections that cover more of
// the universe win; full covers pass a constant), and remaining ties fall
// back to lexicographic comparison of the sorted index lists. Because
// pruning only discards subtrees that are strictly worse than the
// incumbent by length, or that cannot reach a feasible leaf, every
// minimum-size selection of the searched instance is offered and a
// completed search returns the smallest of them in this order.
type bestList struct {
	sel     []int
	score   int
	scratch []int // reused sort buffer
}

// bound returns the current incumbent length.
func (b *bestList) bound() int { return len(b.sel) }

// offer publishes a candidate selection (any order; offer sorts a reused
// scratch copy, so the caller's slice is never retained). It reports
// whether the candidate replaced the incumbent. Candidates that lose on
// length or score are rejected before the sort.
func (b *bestList) offer(cand []int, score int) bool {
	if len(cand) > len(b.sel) || (len(cand) == len(b.sel) && score < b.score) {
		return false
	}
	c := append(b.scratch[:0], cand...)
	b.scratch = c
	sort.Ints(c)
	if len(c) == len(b.sel) && score == b.score && !lexLess(c, b.sel) {
		return false
	}
	b.sel = append(b.sel[:0], c...)
	b.score = score
	return true
}

// snapshot returns a copy of the current incumbent selection.
func (b *bestList) snapshot() []int { return append([]int(nil), b.sel...) }

// lexLess compares two ascending index lists lexicographically; a proper
// prefix is smaller than its extensions.
func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
