// Package detect computes detection ranges: it drives the timing-accurate
// fault simulator over the whole pattern set and fault list (flow step 2
// of Fig. 4), splits the per-tap difference waveforms into the flip-flop
// part I_FF and the shadow-register part I_SR (steps 3–4), and applies the
// pessimistic glitch filtering of Fig. 1.
//
// Per-fault, per-pattern ranges are kept sparse — only patterns that
// detect a fault at all are stored — because the scheduler's second
// optimization step needs to know which (pattern, configuration)
// combinations detect each fault at a chosen clock period.
package detect

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fastmon/internal/cache"
	"fastmon/internal/chaos"
	"fastmon/internal/circuit"
	"fastmon/internal/fault"
	"fastmon/internal/fmerr"
	"fastmon/internal/interval"
	"fastmon/internal/monitor"
	"fastmon/internal/obs"
	"fastmon/internal/obs/flight"
	"fastmon/internal/par"
	"fastmon/internal/sim"
	"fastmon/internal/tunit"
)

// ptBaseline is the chaos injection point at every pattern a worker
// claims, before its fault-free baseline. It sits inside the worker pool,
// so injected panics exercise the recover-and-attribute path of run.
var ptBaseline = chaos.Register("detect.baseline", fmerr.StageDetect)

// Config parameterizes the detection-range computation.
type Config struct {
	// Clk is the nominal clock period t_nom.
	Clk tunit.Time
	// TMin is the minimum FAST clock period 1/f_max.
	TMin tunit.Time
	// Delta is the fault size δ.
	Delta tunit.Time
	// Glitch is the pulse-filtering threshold: detection intervals
	// shorter than this are discarded pessimistically, and glitch-sized
	// gaps between intervals are NOT merged (kept disjoint, per Fig. 1).
	Glitch tunit.Time
	// Workers bounds the simulation goroutines, resolved by
	// par.ClampWorkersFor: zero and negative values use every CPU,
	// requests beyond GOMAXPROCS or the pattern count are cut down instead
	// of oversubscribing.
	Workers int
	// SlowSim is the escape hatch that routes every (fault, pattern) pair
	// through the naive full-resimulation engine (sim.FaultSimNaive)
	// instead of the event-driven fast path. It exists for differential
	// debugging: the two engines are bit-identical by contract, so any
	// divergence observed by flipping this flag is a simulator bug. The
	// naive path also skips the cone-reachability pruning, making it the
	// independent reference.
	SlowSim bool
}

// ObservationWindow returns the half-open interval of admissible capture
// times [TMin, Clk+1): FAST frequencies between f_max and f_nom inclusive.
func (cfg Config) ObservationWindow() (lo, hi tunit.Time) {
	return cfg.TMin, cfg.Clk + 1
}

// PatternRange holds the detection ranges of one fault under one pattern.
// Both sets are *unshifted* and unclipped within [0, Clk]: FF is the union
// over all observation points, SR the union over monitored observation
// points only. The scheduler shifts SR by each configured delay and clips
// to the observation window on demand.
type PatternRange struct {
	Pattern int
	FF      interval.Set
	SR      interval.Set
}

// FaultData aggregates the detection behaviour of one fault over the whole
// pattern set.
type FaultData struct {
	Fault fault.Fault
	// Per holds one entry per pattern that detects the fault anywhere in
	// [0, Clk], ordered by pattern index.
	Per []PatternRange
}

// FFUnion returns the union of the flip-flop ranges over all patterns.
func (fd *FaultData) FFUnion() interval.Set {
	var a interval.Accum
	for _, pr := range fd.Per {
		a.Add(pr.FF)
	}
	return a.Result()
}

// SRUnion returns the union of the unshifted shadow-register ranges over
// all patterns.
func (fd *FaultData) SRUnion() interval.Set {
	var a interval.Accum
	for _, pr := range fd.Per {
		a.Add(pr.SR)
	}
	return a.Result()
}

// Combined returns the full detection range
//
//	I(φ) = I_FF ∪ ⋃_{d∈C} (I_SR + d)
//
// clipped to the observation window [TMin, Clk].
func (fd *FaultData) Combined(cfg Config, delays []tunit.Time) interval.Set {
	lo, hi := cfg.ObservationWindow()
	u := fd.FFUnion().Clip(lo, hi)
	sr := fd.SRUnion()
	for _, d := range delays {
		u = u.Union(sr.Shift(d).Clip(lo, hi))
	}
	return u
}

// CombinedAt reports the detection range of the fault under one specific
// pattern and monitor configuration (delay d; d < 0 means "flip-flops
// only"), clipped to the observation window. Used by the second
// scheduling step.
func (pr PatternRange) CombinedAt(cfg Config, d tunit.Time) interval.Set {
	lo, hi := cfg.ObservationWindow()
	u := pr.FF.Clip(lo, hi)
	if d >= 0 {
		u = u.Union(pr.SR.Shift(d).Clip(lo, hi))
	}
	return u
}

// CombinedFree reports the detection range of the fault under one pattern
// when every monitor may select its own delay element independently — the
// extension beyond the paper's shared-setting assumption (Sec. IV-B). It
// is the optimistic (best-case) model: per-monitor conflicts between
// faults needing different settings at the same monitor are ignored, so
// schedules built from it lower-bound the achievable test time.
func (pr PatternRange) CombinedFree(cfg Config, delays []tunit.Time) interval.Set {
	lo, hi := cfg.ObservationWindow()
	u := pr.FF.Clip(lo, hi)
	for _, d := range delays {
		u = u.Union(pr.SR.Shift(d).Clip(lo, hi))
	}
	return u
}

// CombinedAtInto computes CombinedAt into acc without allocating: acc is
// reset first and scratch is a caller-owned reusable buffer. The result
// (acc.Result) aliases the accumulator; freeze it with acc.Copy before it
// escapes. The schedule range memo evaluates this once per (fault,
// pattern, config), so the in-place kernel matters there.
func (pr PatternRange) CombinedAtInto(cfg Config, d tunit.Time, acc *interval.Accum, scratch *interval.Set) {
	lo, hi := cfg.ObservationWindow()
	acc.Reset()
	pr.FF.ClipInto(lo, hi, scratch)
	acc.Add(*scratch)
	if d >= 0 {
		pr.SR.ShiftClipInto(d, lo, hi, scratch)
		acc.Add(*scratch)
	}
}

// CombinedFreeInto is the in-place counterpart of CombinedFree, with the
// same contract as CombinedAtInto.
func (pr PatternRange) CombinedFreeInto(cfg Config, delays []tunit.Time, acc *interval.Accum, scratch *interval.Set) {
	lo, hi := cfg.ObservationWindow()
	acc.Reset()
	pr.FF.ClipInto(lo, hi, scratch)
	acc.Add(*scratch)
	for _, d := range delays {
		pr.SR.ShiftClipInto(d, lo, hi, scratch)
		acc.Add(*scratch)
	}
}

// testHookPanic, when non-nil, is called before every (fault, pattern)
// simulation inside the worker pool. Tests install a hook that panics for
// a chosen fault to prove the pool converts worker panics into errors
// instead of crashing the process. Always nil in production.
var testHookPanic func(f fault.Fault, pattern int)

// Run simulates every fault under every pattern and returns the sparse
// detection data, ordered like the fault list.
//
// Workers claim patterns off a shared cursor. For each pattern a worker
// computes the fault-free baseline into its own buffer and sweeps the
// fault list over it with the event-driven simulator and its own scratch
// arena. Faults whose fanout cone reaches no observation point are
// skipped outright (they cannot be detected); Config.SlowSim routes
// everything through the naive reference engine instead and disables
// that pruning.
//
// A panic in a worker is recovered and converted to a *fmerr.PanicError
// naming the fault and pattern being simulated; it fails the run, not the
// process. Cancelling ctx stops dispatch and returns the context error
// wrapped with detect-stage attribution.
func Run(ctx context.Context, e *sim.Engine, placement *monitor.Placement, faults []fault.Fault,
	patterns []sim.Pattern, cfg Config) ([]FaultData, error) {

	store := cache.From(ctx)
	if store == nil {
		return run(ctx, e, placement, faults, patterns, cfg)
	}
	v, err := cache.Memo(ctx, store, cacheKey(e, placement, faults, patterns, cfg),
		func(ctx context.Context) (cached, error) {
			data, err := run(ctx, e, placement, faults, patterns, cfg)
			if err != nil {
				return cached{}, err
			}
			per := make([][]PatternRange, len(data))
			for i := range data {
				per[i] = data[i].Per
			}
			return cached{Per: per}, nil
		})
	if err != nil {
		return nil, err
	}
	if len(v.Per) != len(faults) {
		// Defensive: a decoded entry that does not line up with the
		// request is wrong by construction; recompute.
		return run(ctx, e, placement, faults, patterns, cfg)
	}
	out := make([]FaultData, len(faults))
	for i, f := range faults {
		out[i] = FaultData{Fault: f, Per: v.Per[i]}
	}
	return out, nil
}

// cached is the detect entry layout of the result cache: the sparse
// per-pattern ranges aligned with the request's fault list. The Fault
// identities themselves are reattached from the request at decode time, so
// entries never carry gate IDs and stay valid across any netlist ordering
// that hashes to the same key.
type cached struct {
	Per [][]PatternRange
}

// cacheKey fingerprints everything Run's output depends on: the canonical
// netlist, the full delay annotation and library timing, the monitored tap
// set, the exact fault list and pattern set, and the detection config.
// Worker count is excluded — results are bit-identical by contract for any
// parallelism — and so are the placement's delay elements, which only
// matter downstream of Run.
func cacheKey(e *sim.Engine, placement *monitor.Placement, faults []fault.Fault,
	patterns []sim.Pattern, cfg Config) cache.Key {

	c := e.C
	h := cache.NewHasher("detect")
	h.Str("circuit", cache.CircuitFingerprint(c))

	lib := e.A.Lib
	h.Str("lib", lib.Name)
	kinds := make([]int, 0, len(lib.Base))
	for k := range lib.Base {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	for _, k := range kinds {
		h.Time("lib.base."+circuit.Kind(k).String(), lib.Base[circuit.Kind(k)])
	}
	h.F64("lib.fallskew", lib.FallSkew)
	h.Time("lib.pinstep", lib.PinStep)
	h.Time("lib.loadstep", lib.LoadStep)
	h.Time("lib.clktoq", lib.ClkToQ)
	h.Time("lib.setup", lib.Setup)

	// Annotation in gate-name order so the component composes with the
	// order-invariant netlist fingerprint.
	order := make([]int, len(c.Gates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return c.Gates[order[i]].Name < c.Gates[order[j]].Name
	})
	for _, id := range order {
		h.Str("annot.gate", c.Gates[id].Name)
		for _, edge := range e.A.Delay[id] {
			h.Time("annot.rise", edge.Rise)
			h.Time("annot.fall", edge.Fall)
		}
	}

	for _, tap := range c.Taps() {
		h.Str("tap", tap.Name)
	}
	if placement != nil {
		h.Ints("placement.taps", placement.Taps)
	}

	h.Int("faults", int64(len(faults)))
	for _, f := range faults {
		h.Str("f.gate", c.Gates[f.Gate].Name)
		h.Int("f.pin", int64(f.Pin))
		h.Bool("f.rising", f.Rising)
	}
	h.Int("patterns", int64(len(patterns)))
	for _, p := range patterns {
		h.Bools("p.v1", p.V1)
		h.Bools("p.v2", p.V2)
	}

	h.Time("cfg.clk", cfg.Clk)
	h.Time("cfg.tmin", cfg.TMin)
	h.Time("cfg.delta", cfg.Delta)
	h.Time("cfg.glitch", cfg.Glitch)
	h.Bool("cfg.slowsim", cfg.SlowSim)
	return h.Key()
}

// hit is one detecting (fault, pattern) pair, recorded under its pattern
// by the worker that swept it.
type hit struct {
	fault int
	pr    PatternRange
}

// run is the uncached body of Run.
func run(ctx context.Context, e *sim.Engine, placement *monitor.Placement, faults []fault.Fault,
	patterns []sim.Pattern, cfg Config) ([]FaultData, error) {

	workers := par.ClampWorkersFor(cfg.Workers, len(patterns))
	horizon := cfg.Clk + 1

	// Every pattern sweeps the same live list: the faults whose cone
	// reaches an observation point (all of them under SlowSim), with their
	// injections precomputed.
	type liveFault struct {
		fault int
		inj   sim.Injection
	}
	live := make([]liveFault, 0, len(faults))
	for fi, f := range faults {
		if cfg.SlowSim || e.C.ReachesTap(f.Gate) {
			live = append(live, liveFault{fi, f.Injection(cfg.Delta)})
		}
	}
	dead := int64(len(faults) - len(live))

	// Telemetry: each worker tallies privately and publishes once on exit;
	// the totals are rolled into the shared registry at the end, so
	// events/sec reflects this run, not the process lifetime. Utilization
	// is the busy fraction of the pool's wall-clock capacity.
	type tally struct {
		sims, hits, panics, skipped int64
		busy                        time.Duration
		st                          sim.Stats
	}
	tallies := make([]tally, workers)
	start := time.Now()
	_, span := obs.StartSpan(ctx, "detect")
	// The flight recorder journals worker lifecycle transitions (nil-safe
	// no-op without one).
	rec := obs.From(ctx).Flight()
	defer func() {
		var sum tally
		for _, t := range tallies {
			sum.sims += t.sims
			sum.hits += t.hits
			sum.panics += t.panics
			sum.skipped += t.skipped
			sum.busy += t.busy
			sum.st.Add(t.st)
		}
		o := obs.From(ctx)
		wall := time.Since(start)
		o.Counter("detect.sims").Add(sum.sims)
		o.Counter("detect.detections").Add(sum.hits)
		o.Counter("detect.panics_recovered").Add(sum.panics)
		o.Counter("detect.cone_skipped_pairs").Add(sum.skipped)
		o.Counter("detect.sim_events").Add(sum.st.Events)
		o.Counter("detect.sim_converged").Add(sum.st.Converged)
		o.Counter("detect.sim_pruned_gates").Add(sum.st.Pruned)
		o.Counter("detect.sim_early_exits").Add(sum.st.EarlyExits)
		if s := wall.Seconds(); s > 0 {
			o.Gauge("detect.sims_per_sec").Set(float64(sum.sims) / s)
		}
		if poolNs := int64(workers) * int64(wall); poolNs > 0 {
			o.Gauge("detect.worker_utilization").Set(float64(sum.busy) / float64(poolNs))
		}
		span.End(
			slog.Int("faults", len(faults)),
			slog.Int("patterns", len(patterns)),
			slog.Int("workers", workers),
			slog.Bool("slowsim", cfg.SlowSim),
			slog.Int64("sims", sum.sims),
			slog.Int64("detections", sum.hits),
			slog.Int64("events", sum.st.Events),
			slog.Int64("cone_skipped", sum.skipped))
	}()

	// Workers cancel the pool on first failure so their peers stop
	// promptly instead of draining the remaining patterns.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var errMu sync.Mutex
	var firstErr error
	// A panicking worker cancels the pool, so its peers also report the
	// (secondary) cancellation; keep the most informative error.
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil || (!isPanicErr(firstErr) && isPanicErr(err)) {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}

	// hits[pi] is written only by the worker that claimed pattern pi.
	hits := make([][]hit, len(patterns))
	var cursor atomic.Int64
	par.Run(workers, func(w int) {
		rec.Record(flight.Event{Kind: flight.KindWorker, Name: "detect.worker", Stage: "detect", Detail: "start", Value: int64(w)})
		defer rec.Record(flight.Event{Kind: flight.KindWorker, Name: "detect.worker", Stage: "detect", Detail: "done", Value: int64(w)})
		var t tally
		defer func() { tallies[w] = t }()
		// curFault/curPat track the work item for panic attribution;
		// curFault < 0 while the baseline is being computed.
		curFault, curPat := -1, -1
		defer func() {
			if r := recover(); r != nil {
				t.panics++
				item := fmt.Sprintf("baseline for pattern %d", curPat)
				if curFault >= 0 {
					item = fmt.Sprintf("fault %s under pattern %d",
						faults[curFault].Injection(cfg.Delta), curPat)
				}
				rec.Record(flight.Event{Kind: flight.KindPanic, Name: "detect.worker", Stage: "detect",
					Detail: fmt.Sprintf("%s: %v", item, r), Value: int64(w)})
				fail(fmerr.NewPanic(fmerr.StageDetect, item, r))
			}
		}()
		base := make([]sim.Waveform, len(e.C.Gates))
		sc := e.NewScratch()
		// ffAcc/srAcc accumulate the per-pattern range unions into reused
		// buffers.
		var ffAcc, srAcc interval.Accum
		for {
			pi := int(cursor.Add(1)) - 1
			if pi >= len(patterns) || wctx.Err() != nil {
				return
			}
			curFault, curPat = -1, pi
			if err := chaos.Point(wctx, ptBaseline); err != nil {
				fail(fmerr.Wrap(fmerr.StageDetect, "baseline", err))
				return
			}
			t0 := time.Now()
			if err := e.BaselineInto(wctx, patterns[pi], base); err != nil {
				fail(err)
				return
			}
			t.skipped += dead
			for n, lf := range live {
				if n&63 == 63 && wctx.Err() != nil {
					fail(fmerr.Wrap(fmerr.StageDetect, "run", wctx.Err()))
					t.busy += time.Since(t0)
					return
				}
				curFault = lf.fault
				if testHookPanic != nil {
					testHookPanic(faults[lf.fault], pi)
				}
				t.sims++
				var dets []sim.Detection
				if cfg.SlowSim {
					dets = e.FaultSimNaive(base, lf.inj, horizon)
				} else {
					dets = e.FaultSimScratch(base, lf.inj, horizon, sc, &t.st)
				}
				if len(dets) == 0 {
					continue
				}
				ffAcc.Reset()
				srAcc.Reset()
				for _, d := range dets {
					diff := d.Diff.FilterShort(cfg.Glitch)
					if diff.Empty() {
						continue
					}
					ffAcc.Add(diff)
					if placement != nil && placement.Covers(d.Tap) {
						srAcc.Add(diff)
					}
				}
				if ffAcc.Empty() && srAcc.Empty() {
					continue
				}
				hits[pi] = append(hits[pi], hit{lf.fault, PatternRange{Pattern: pi, FF: ffAcc.Copy(), SR: srAcc.Copy()}})
				t.hits++
			}
			t.busy += time.Since(t0)
		}
	})

	if firstErr != nil {
		return nil, firstErr
	}
	// No worker failed; a cancelled parent context still aborts the run.
	if err := ctx.Err(); err != nil {
		return nil, fmerr.Wrap(fmerr.StageDetect, "run", err)
	}

	// Regroup by fault in pattern order into exact-size rows.
	counts := make([]int, len(faults))
	for _, hs := range hits {
		for _, h := range hs {
			counts[h.fault]++
		}
	}
	out := make([]FaultData, len(faults))
	for fi, f := range faults {
		out[fi].Fault = f
		if counts[fi] > 0 {
			out[fi].Per = make([]PatternRange, 0, counts[fi])
		}
	}
	for _, hs := range hits {
		for _, h := range hs {
			out[h.fault].Per = append(out[h.fault].Per, h.pr)
		}
	}
	return out, nil
}

func isPanicErr(err error) bool {
	var pe *fmerr.PanicError
	return errors.As(err, &pe)
}
