package ilp

import (
	"context"
	"strconv"
	"sync/atomic"

	"fastmon/internal/chaos"
	"fastmon/internal/fmerr"
	"fastmon/internal/obs"
	"fastmon/internal/obs/flight"
	"fastmon/internal/par"
)

// Chaos injection points of the solvers: an error-capable point at solve
// entry, and panic/delay-only disturbances (the dfs has no error return
// path) at node expansion and incumbent publication. An injected panic
// rides the worker recover → stop + fr.Abort → re-panic path of
// search.run, so it exercises the same isolation a real solver bug would.
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
type Options struct {
	// MaxNodes bounds the branch-and-bound tree (0 = unlimited). It is
	// checked once per poll window and degrades like a spent deadline.
	MaxNodes int
	// Workers bounds the branch-and-bound worker pool; zero or negative
	// means one worker per CPU (par.ClampWorkers). Completed solves are
	// deterministic for every worker count: incumbents go through a
	// lexicographic tie-break and subtrees are pruned only when strictly
	// worse than the incumbent, so the result is the lexicographically
	// smallest optimum regardless of interleaving. Budget- or node-capped
	// aborts return whichever incumbent was best at expiry and are the one
	// place worker count can show through.
	Workers int
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
	stopPanicked            // a worker panicked: peers bail, the panic reaches the caller
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
// PartialCover: the frontier of tasks T, the shared incumbent, the
// tallies and stop flag, the worker pool with its panic isolation, and
// the CoverResult. A solver supplies its task type, its per-worker
// scratch type L, an expand function (branching and bound), the
// selection and the root bound.
type search[T, L any] struct {
	budget
	op      string // solver name in wrapped errors
	event   string // flight event name of incumbent publications
	workers int
	fr      *par.Frontier[T]
	best    *bestList
	frec    *flight.Recorder

	incumbents, stolen atomic.Int64
}

// budget is the part of a search that the per-node accounting reads. It
// is not generic, so meter.enter stays within the inlining budget (the
// generic shape instantiation of the same method does not).
type budget struct {
	ctx      context.Context
	inj      *chaos.Injector // resolved once; nil is a valid no-op
	maxNodes int64
	pool     interface{ Abort() } // the frontier, drained on a stop
	nodes    atomic.Int64
	stop     stopFlag
}

// newSearch prepares a search seeded with a sorted incumbent and its
// score (see bestList).
func newSearch[T, L any](ctx context.Context, op, event string, opts Options, seed []int, score int) *search[T, L] {
	workers := par.ClampWorkers(opts.Workers)
	fr := par.NewFrontier[T](workers)
	return &search[T, L]{
		budget:  budget{ctx: ctx, inj: chaos.From(ctx), maxNodes: int64(opts.MaxNodes), pool: fr},
		op:      op,
		event:   event,
		workers: workers,
		fr:      fr,
		best:    newBestList(seed, score),
		frec:    obs.From(ctx).Flight(),
	}
}

// meter is one worker's node accounting. dead flips when poll observes a
// stop; as a plain per-worker bool it lets every recursion level bail
// without an atomic read per node.
type meter struct {
	b     *budget
	nodes int64
	dead  bool
}

// enter accounts one node and reports whether to expand it. It is the
// whole per-node cost of the harness and is inlined into the solvers'
// dfs; the shared atomics are touched only by poll, once per pollMask+1
// nodes.
func (m *meter) enter() bool {
	if m.dead {
		return false
	}
	m.nodes++
	return m.nodes&pollMask != 0 || m.poll()
}

// poll is the once-per-window slow path: flush the window into the shared
// tally, notice peer stops, check the context and the node cap. Stops
// only arise on abort paths, so the no-abort search is untouched; totals
// stay exact because run flushes the sub-window remainder.
func (m *meter) poll() bool {
	b := m.b
	nn := b.nodes.Add(pollMask + 1)
	if b.stop.get() == stopNone {
		r := checkCtx(b.ctx)
		if r == stopNone {
			b.inj.Disturb(b.ctx, ptNode)
			if b.maxNodes > 0 && nn > b.maxNodes {
				r = stopBudget
			}
		}
		if r == stopNone {
			return true
		}
		b.stop.set(r)
		b.pool.Abort()
	}
	m.dead = true
	return false
}

// walker is one worker's handle on a search: its meter, its scratch, and
// the frontier and incumbent operations an expand function needs.
type walker[T, L any] struct {
	meter
	s     *search[T, L]
	id    int
	local L // the solver's per-worker scratch, zero at start
}

// hungry reports whether to offload sibling subtrees now: the pool has
// more than one worker and is running low (par.Frontier.Hungry).
func (w *walker[T, L]) hungry() bool { return w.s.workers > 1 && w.s.fr.Hungry() }

// push offloads a subproblem to the frontier.
func (w *walker[T, L]) push(t T) { w.s.fr.Push(w.id, t) }

// offer publishes a leaf selection with its score as a candidate
// incumbent.
func (w *walker[T, L]) offer(cur []int, score int) {
	s := w.s
	s.inj.Disturb(s.ctx, ptIncumbent)
	if s.best.offer(cur, score) {
		s.frec.Record(flight.Event{Kind: flight.KindIncumbent, Name: s.event, Stage: "solve",
			Detail: strconv.Itoa(len(cur)) + " sets", Value: s.incumbents.Add(1)})
	}
}

// run seeds the frontier with root and works it off, calling expand for
// every task a worker pops. A panicking worker sets the stop flag, so
// peers leave their subtrees at the next poll, and aborts the frontier, so
// no peer is stranded in Pop; par.Run then re-raises the panic in the
// caller.
func (s *search[T, L]) run(root T, expand func(w *walker[T, L], t T)) {
	s.fr.Push(0, root)
	par.Run(s.workers, func(id int) {
		defer func() {
			if r := recover(); r != nil {
				s.stop.set(stopPanicked)
				s.fr.Abort()
				panic(r)
			}
		}()
		w := &walker[T, L]{meter: meter{b: &s.budget}, s: s, id: id}
		for {
			t, st, ok := s.fr.Pop(id)
			if !ok {
				break
			}
			if st {
				s.stolen.Add(1)
			}
			expand(w, t)
		}
		s.nodes.Add(w.nodes & pollMask)
	})
}

// result turns the finished search into a CoverResult for the final
// selection sel (sorted ascending): optimal unless a stop reason was
// recorded, in which case the gap is measured against the root lower
// bound rootLB. It records the solve's effort and wraps a cancellation.
func (s *search[T, L]) result(sel []int, rootLB int) (CoverResult, error) {
	stopped := s.stop.get()
	res := CoverResult{
		Selected:   sel,
		Optimal:    stopped == stopNone,
		Nodes:      int(s.nodes.Load()),
		Incumbents: int(s.incumbents.Load()),
	}
	if !res.Optimal {
		res.Degradation = fmerr.DegradeIncumbent
		if total := len(sel); total > rootLB && total > 0 {
			res.Gap = float64(total-rootLB) / float64(total)
		}
	}
	recordSolve(s.ctx, res.Nodes, res.Incumbents, res.Optimal, res.Gap)
	if o := obs.From(s.ctx); o != nil {
		o.Gauge("ilp.workers").Set(float64(s.workers))
		o.Counter("ilp.nodes_stolen").Add(s.stolen.Load())
	}
	if stopped == stopCanceled {
		return res, fmerr.Wrap(fmerr.StageSolve, s.op, s.ctx.Err())
	}
	return res, nil
}
