package exper

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastmon/internal/chaos"
	"fastmon/internal/fmerr"
	"fastmon/internal/obs"
	"fastmon/internal/obs/flight"
	"fastmon/internal/par"
	"fastmon/internal/safeio"
	"fastmon/internal/schedule"
)

// Chaos injection points of the harness layer: the per-circuit compute
// dispatch and both sides of the checkpoint store.
var (
	ptCircuit         = chaos.Register("exper.circuit", fmerr.StageExper)
	ptCheckpointWrite = chaos.Register("exper.checkpoint.write", fmerr.StageCheckpoint)
	ptCheckpointRead  = chaos.Register("exper.checkpoint.read", fmerr.StageCheckpoint)
)

// Checkpointing for multi-circuit harness runs: the full-scale suite takes
// hours per circuit, so the driver persists each circuit's derived results
// (table rows, sweep points) as one JSON file immediately after the
// circuit finishes. A resumed run reloads the directory and recomputes
// only the circuits that are missing, corrupt, or were produced under a
// different configuration.

// TableRequest names the artifacts a harness run wants per circuit.
type TableRequest struct {
	T1 bool
	T2 bool
	T3 bool
	// Fig3Steps > 0 requests the Fig. 3 sweep with that many steps. The
	// driver requests it only for the first circuit, matching the paper.
	Fig3Steps int
}

// CircuitResult is the checkpointed outcome of one suite circuit: the
// derived rows rather than the flow itself (detection data does not
// serialize compactly, and the tables are what the harness is after).
type CircuitResult struct {
	Name string `json:"name"`
	// Scale and MaxFaults fingerprint the configuration the result was
	// computed under; a resumed run with different settings must not reuse
	// the entry.
	Scale     float64 `json:"scale"`
	MaxFaults int     `json:"max_faults"`

	T1   *T1Row      `json:"t1,omitempty"`
	T2   *T2Row      `json:"t2,omitempty"`
	T3   *T3Row      `json:"t3,omitempty"`
	Fig3 []Fig3Point `json:"fig3,omitempty"`

	// Degradation records the worst result-quality rung among the
	// schedules behind T2/T3 ("exact" or "incumbent").
	Degradation string `json:"degradation,omitempty"`

	// Elapsed is the circuit's wall-clock compute time; Stages breaks it
	// down by pipeline stage (build, sta, classify, atpg, detect, extract,
	// schedule). Both are zero/empty when no observer was attached or when
	// the entry came from a pre-telemetry checkpoint.
	Elapsed time.Duration            `json:"elapsed_ns,omitempty"`
	Stages  map[string]time.Duration `json:"stages_ns,omitempty"`
	// Solver aggregates the exact-solver effort over every schedule built
	// for this circuit (T2's ILP column plus all T3 coverage targets).
	Solver *schedule.SolverStats `json:"solver,omitempty"`
}

// Satisfies reports whether the checkpointed entry contains every artifact
// the request asks for, so a resumed run with a broader request recomputes
// the circuit instead of serving a partial entry.
func (r *CircuitResult) Satisfies(req TableRequest) bool {
	if req.T1 && r.T1 == nil {
		return false
	}
	if req.T2 && r.T2 == nil {
		return false
	}
	if req.T3 && r.T3 == nil {
		return false
	}
	if req.Fig3Steps > 0 && len(r.Fig3) == 0 {
		return false
	}
	return true
}

// Matches reports whether the entry was computed under the given suite
// configuration.
func (r *CircuitResult) Matches(cfg SuiteConfig) bool {
	cfg = cfg.Defaults()
	return r.Scale == cfg.Scale && r.MaxFaults == cfg.MaxFaults
}

// checkpointPath places one circuit's entry in the directory. Suite names
// are identifier-like ("s9234", "p141k"), so the name maps to a filename
// directly.
func checkpointPath(dir, name string) string {
	return filepath.Join(dir, name+".json")
}

// SaveCheckpoint durably persists one circuit result as a CRC-stamped
// record: write-fsync-rename into place plus a directory fsync (via
// safeio), so a crash mid-write never corrupts an existing entry and a
// completed save survives power loss. Transient failures — including
// chaos-injected ones — are retried with backoff; the retry never
// outlives ctx.
func SaveCheckpoint(ctx context.Context, dir string, res *CircuitResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmerr.Wrap(fmerr.StageCheckpoint, "mkdir", err)
	}
	data, err := safeio.MarshalRecord(res)
	if err != nil {
		return fmerr.Wrap(fmerr.StageCheckpoint, "marshal", err)
	}
	path := checkpointPath(dir, res.Name)
	err = safeio.Retry(ctx, safeio.RetryPolicy{}, "checkpoint "+res.Name, func() error {
		if err := chaos.Point(ctx, ptCheckpointWrite); err != nil {
			return err
		}
		return safeio.WriteFileAtomic(ctx, path, data, 0o644)
	})
	if err == nil {
		obs.From(ctx).Flight().Record(flight.Event{Kind: flight.KindCheckpoint,
			Name: res.Name, Stage: "checkpoint", Detail: path, Value: int64(len(data))})
	}
	return fmerr.Wrap(fmerr.StageCheckpoint, "write", err)
}

// LoadCheckpoints reads every usable entry from the directory, keyed by
// circuit name. Corrupt entries — torn records, bit flips caught by the
// CRC, zero-length or truncated files, unknown record versions — are
// treated identically to missing ones: skipped (reported in skipped,
// counted on the obs counter "exper.checkpoints_corrupt") so the
// resumed run recomputes them, never served. Entries computed under a
// different configuration are likewise skipped. Legacy pre-envelope
// naked-JSON entries still load. A missing directory yields an empty
// map.
func LoadCheckpoints(ctx context.Context, dir string, cfg SuiteConfig) (entries map[string]*CircuitResult, skipped []string, err error) {
	entries = map[string]*CircuitResult{}
	if err := chaos.Point(ctx, ptCheckpointRead); err != nil {
		return nil, nil, fmerr.Wrap(fmerr.StageCheckpoint, "read", err)
	}
	o := obs.From(ctx)
	files, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return entries, nil, nil
		}
		return nil, nil, fmerr.Wrap(fmerr.StageCheckpoint, "readdir", err)
	}
	corrupt := func(name string, err error) {
		o.Counter("exper.checkpoints_corrupt").Add(1)
		skipped = append(skipped, fmt.Sprintf("%s: %v", name, err))
	}
	for _, f := range files {
		name := f.Name()
		if f.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		var res CircuitResult
		if derr := safeio.UnmarshalRecord(data, &res); derr != nil {
			if !errors.Is(derr, safeio.ErrNotRecord) {
				corrupt(name, derr) // envelope present but CRC/version does not verify
				continue
			}
			// Not an envelope: either a legacy naked-JSON entry (still
			// honored) or junk — zero-length, truncated, not JSON at all —
			// which counts as corrupt exactly like a failed checksum.
			if len(bytes.TrimSpace(data)) == 0 {
				corrupt(name, errors.New("zero-length entry"))
				continue
			}
			if jerr := json.Unmarshal(data, &res); jerr != nil {
				corrupt(name, jerr)
				continue
			}
		}
		if res.Name != strings.TrimSuffix(name, ".json") {
			corrupt(name, fmt.Errorf("entry names %q", res.Name))
			continue
		}
		if !res.Matches(cfg) {
			skipped = append(skipped, fmt.Sprintf("%s: computed under scale %.3f / %d faults", name, res.Scale, res.MaxFaults))
			continue
		}
		entries[res.Name] = &res
	}
	return entries, skipped, nil
}

// ComputeCircuit runs one suite circuit end to end and derives the
// requested artifacts. When an observer is attached to ctx the whole
// computation runs under a span named after the circuit, and the result
// carries the per-stage wall-clock breakdown extracted from the direct
// child spans (build, sta, classify, atpg, detect, extract, schedule).
func ComputeCircuit(ctx context.Context, spec Spec, cfg SuiteConfig, req TableRequest) (*CircuitResult, error) {
	cfg = cfg.Defaults()
	o := obs.From(ctx)
	mark := o.Mark()
	start := time.Now()
	cctx, span := obs.StartSpan(ctx, spec.Name)
	r, err := RunCircuit(cctx, spec, cfg)
	if err != nil {
		span.End()
		return nil, err
	}
	res := &CircuitResult{Name: spec.Name, Scale: cfg.Scale, MaxFaults: cfg.MaxFaults}
	worst := fmerr.DegradeNone
	var solver schedule.SolverStats
	if req.T1 {
		row := TableI(r)
		res.T1 = &row
	}
	if req.T2 {
		row, schedules, err := TableII(cctx, r)
		if err != nil {
			span.End()
			return nil, err
		}
		res.T2 = &row
		for _, s := range schedules {
			worst = fmerr.Worse(worst, s.Degradation)
			addSolver(&solver, s.Solver)
		}
	}
	if req.T3 {
		row, t3solver, t3worst, err := TableIII(cctx, r)
		if err != nil {
			span.End()
			return nil, err
		}
		res.T3 = &row
		worst = fmerr.Worse(worst, t3worst)
		addSolver(&solver, t3solver)
	}
	if req.Fig3Steps > 0 {
		res.Fig3 = Fig3(r, req.Fig3Steps)
	}
	res.Degradation = worst.String()
	span.End()
	res.Elapsed = time.Since(start)
	if solver.Solves > 0 {
		res.Solver = &solver
	}
	if stages := stageBreakdown(o.SpansSince(mark), spec.Name); len(stages) > 0 {
		res.Stages = stages
	}
	return res, nil
}

// stageBreakdown sums the direct child spans of the circuit span into a
// per-stage duration map ("s9234/atpg" -> stages["atpg"]). Deeper
// descendants and unrelated spans are ignored.
func stageBreakdown(recs []obs.SpanRecord, circuit string) map[string]time.Duration {
	prefix := circuit + "/"
	var stages map[string]time.Duration
	for _, rec := range recs {
		rest, ok := strings.CutPrefix(rec.Path, prefix)
		if !ok || strings.Contains(rest, "/") {
			continue
		}
		if stages == nil {
			stages = map[string]time.Duration{}
		}
		stages[rest] += rec.Duration
	}
	return stages
}

// SuiteEvent is one progress notification from RunSuiteCheckpointed. Each
// circuit produces two events: a start event (Res nil) just before compute
// begins — skipped for checkpoint hits — and a completion event carrying
// the fresh or reloaded result.
type SuiteEvent struct {
	// Index (0-based) and Total locate the circuit within the run.
	Index int
	Total int
	Spec  Spec
	// Res is nil for a start event, the circuit's result otherwise.
	Res *CircuitResult
	// Cached reports that Res was served from a checkpoint entry.
	Cached bool
}

// SuiteProgress receives SuiteEvents during a checkpointed run.
type SuiteProgress func(ev SuiteEvent)

// RunSuiteCheckpointed drives the configured suite subset with
// checkpointing. For each circuit it reuses a matching checkpoint entry if
// one satisfies the request, otherwise it recomputes the circuit and —
// when dir is non-empty — persists the result before moving on. Circuits
// run concurrently on a bounded worker pool (SuiteConfig.Workers, default
// one per CPU); results are always returned in suite/spec order
// regardless of completion order, checkpoint writes keep their atomic
// write-then-rename discipline, and progress callbacks are serialized.
//
// Closing stop requests a graceful shutdown: no new circuits are
// dispatched, the in-flight ones finish and are flushed, then the run
// returns the results so far with a partial-result error (degradation
// "partial"). Cancelling ctx aborts the in-flight circuits themselves. On
// a circuit failure the run stops dispatching and reports the error of
// the lowest-index failed circuit alongside every completed result.
// progress may be nil.
func RunSuiteCheckpointed(ctx context.Context, cfg SuiteConfig, req TableRequest, dir string,
	stop <-chan struct{}, progress SuiteProgress) (results []*CircuitResult, err error) {

	// Suite-level panic isolation: the harness entry points (checkpoint
	// load, dispatch bookkeeping) run outside the per-circuit recover, so
	// a panic there — including an injected one — must still surface as a
	// typed error, never escape to the caller. The flight recorder (when
	// attached) journals the panic and dumps its ring for post-mortem.
	rec := obs.From(ctx).Flight()
	defer func() {
		if r := recover(); r != nil {
			pe := fmerr.NewPanic(chaos.StageOf(r, fmerr.StageExper), "suite", r)
			rec.Record(flight.Event{Kind: flight.KindPanic, Name: "suite",
				Stage: string(pe.Stage), Detail: pe.Error()})
			rec.AutoDump("recovered panic") //nolint:errcheck // best-effort post-mortem
			results, err = nil, pe
		}
	}()

	cfg = cfg.Defaults()
	specs, err := cfg.Select()
	if err != nil {
		return nil, err
	}
	var cached map[string]*CircuitResult
	if dir != "" {
		cached, _, err = LoadCheckpoints(ctx, dir, cfg)
		if err != nil {
			return nil, err
		}
	}
	stopped := func() bool {
		if stop == nil {
			return false
		}
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	workers := par.ClampWorkersFor(cfg.Workers, len(specs))
	o := obs.From(ctx)
	var (
		mu       sync.Mutex // guards slots, firstErr/errIdx, progress calls
		slots    = make([]*CircuitResult, len(specs))
		next     atomic.Int64
		inflight atomic.Int64
		halted   atomic.Bool // stop observed or a circuit failed: no new dispatch
		firstErr error
		errIdx   int
	)
	recordErr := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < errIdx {
			firstErr, errIdx = err, i
		}
		mu.Unlock()
		halted.Store(true)
	}
	// runOne computes and persists one circuit with panic isolation: a
	// panic anywhere under the circuit — a worker pool re-raising a
	// recovered worker panic, or a chaos-injected one — becomes a typed
	// *fmerr.PanicError attributed to the stage it fired in, so one
	// crashing circuit fails the run with attribution instead of killing
	// the process.
	runOne := func(spec Spec, creq TableRequest) (res *CircuitResult, err error) {
		defer func() {
			if r := recover(); r != nil {
				pe := fmerr.NewPanic(chaos.StageOf(r, fmerr.StageExper), spec.Name, r)
				rec.Record(flight.Event{Kind: flight.KindPanic, Name: spec.Name,
					Stage: string(pe.Stage), Detail: pe.Error()})
				rec.AutoDump("recovered panic") //nolint:errcheck // best-effort post-mortem
				err = pe
			}
		}()
		if err := chaos.Point(ctx, ptCircuit); err != nil {
			return nil, fmerr.Wrap(fmerr.StageExper, spec.Name, err)
		}
		res, err = ComputeCircuit(ctx, spec, cfg, creq)
		if err != nil {
			return nil, fmerr.Wrap(fmerr.StageExper, spec.Name, err)
		}
		if dir != "" {
			if err := SaveCheckpoint(ctx, dir, res); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	par.Run(workers, func(w int) {
		rec.Record(flight.Event{Kind: flight.KindWorker, Name: "exper.suite", Stage: "exper", Detail: "start", Value: int64(w)})
		defer rec.Record(flight.Event{Kind: flight.KindWorker, Name: "exper.suite", Stage: "exper", Detail: "done", Value: int64(w)})
		for {
			i := int(next.Add(1)) - 1
			if i >= len(specs) || halted.Load() {
				return
			}
			if stopped() {
				halted.Store(true)
				return
			}
			if err := ctx.Err(); err != nil {
				recordErr(i, fmerr.Wrap(fmerr.StageExper, "suite", err))
				return
			}
			spec := specs[i]
			creq := req
			if i > 0 {
				creq.Fig3Steps = 0 // Fig. 3 is evaluated on the first circuit only
			}
			if res, ok := cached[spec.Name]; ok && res.Satisfies(creq) {
				mu.Lock()
				slots[i] = res
				if progress != nil {
					progress(SuiteEvent{Index: i, Total: len(specs), Spec: spec, Res: res, Cached: true})
				}
				mu.Unlock()
				continue
			}
			if progress != nil {
				mu.Lock()
				progress(SuiteEvent{Index: i, Total: len(specs), Spec: spec})
				mu.Unlock()
			}
			o.Gauge("exper.circuits_inflight").Set(float64(inflight.Add(1)))
			res, err := runOne(spec, creq)
			o.Gauge("exper.circuits_inflight").Set(float64(inflight.Add(-1)))
			if err != nil {
				recordErr(i, err)
				return
			}
			mu.Lock()
			slots[i] = res
			if progress != nil {
				progress(SuiteEvent{Index: i, Total: len(specs), Spec: spec, Res: res})
			}
			mu.Unlock()
		}
	})
	out := make([]*CircuitResult, 0, len(specs))
	for _, r := range slots {
		if r != nil {
			out = append(out, r)
		}
	}
	if firstErr != nil {
		return out, firstErr
	}
	if halted.Load() {
		return out, fmerr.Errorf(fmerr.StageExper, "suite",
			"stopped after %d of %d circuits (results are partial)", len(out), len(specs))
	}
	return out, nil
}
