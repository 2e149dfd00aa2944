// Command tablegen regenerates the paper's evaluation artifacts: the HDF
// coverage sweep of Fig. 3 and Tables I, II and III, on the synthetic
// circuit suite (see DESIGN.md for the substitution rationale).
//
// Usage:
//
//	tablegen -all -scale 0.08
//	tablegen -table2 -circuits s9234,s13207 -scale 0.1
//	tablegen -fig3 -circuits s9234
//	tablegen -all -checkpoint out/ckpt          # persist per-circuit results
//	tablegen -all -checkpoint out/ckpt -resume  # reuse completed circuits
//
// With -checkpoint DIR every circuit's derived results are flushed to
// DIR/<name>.json as soon as the circuit finishes; -resume reloads the
// directory and recomputes only missing, corrupt, or configuration-
// mismatched entries. The first SIGINT (Ctrl-C) finishes and flushes the
// circuit in flight, then exits with the tables computed so far; a second
// SIGINT aborts the in-flight circuit itself.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fastmon/internal/aging"
	"fastmon/internal/cache"
	"fastmon/internal/chaos"
	"fastmon/internal/exper"
	"fastmon/internal/obs"
	"fastmon/internal/obs/flight"
	"fastmon/internal/obshttp"
	"fastmon/internal/schedule"
)

type options struct {
	t1, t2, t3 bool
	fig3       bool
	ablate     bool
	robust     bool
	lifetime   bool
	steps      int
	ckptDir    string
	resume     bool

	verbose  bool   // -v: per-stage span logging
	jsonLogs bool   // -json-logs: structured JSON log lines
	manifest string // -manifest: run.json output path ("" disables)
	listen   string // -listen: live introspection server address ("" disables)

	cacheDir string // -cache.dir: result-cache directory ("" disables)
	cacheMax int64  // -cache.max: result-cache byte budget (<= 0 unlimited)

	// chaosRate > 0 enables deterministic fault injection at every
	// registered chaos point, driven by chaosSeed (see internal/chaos).
	chaosSeed int64
	chaosRate float64

	// rec is the flight recorder shared between main (SIGQUIT dumps) and
	// the run (event recording, introspection server); nil when disabled
	// with -flight "".
	rec *flight.Recorder
}

func main() {
	var (
		t1       = flag.Bool("table1", false, "regenerate Table I")
		t2       = flag.Bool("table2", false, "regenerate Table II")
		t3       = flag.Bool("table3", false, "regenerate Table III")
		fig3     = flag.Bool("fig3", false, "regenerate the Fig. 3 sweep (first selected circuit)")
		ablate   = flag.Bool("ablate", false, "run the ablation studies (first selected circuit)")
		robust   = flag.Bool("robust", false, "run the variation-robustness study (first selected circuit)")
		lifetime = flag.Bool("lifetime", false, "run the aging lifetime sweep (first selected circuit)")
		all      = flag.Bool("all", false, "regenerate everything")
		scale    = flag.Float64("scale", 0.08, "circuit size scale (1.0 = paper sizes)")
		circuits = flag.String("circuits", "", "comma-separated subset (default: all twelve)")
		maxF     = flag.Int("maxfaults", 2500, "fault-sample budget per circuit")
		budget   = flag.Duration("budget", 5*time.Second, "time budget per exact covering solve")
		steps    = flag.Int("steps", 10, "sweep points for -fig3")
		ckpt     = flag.String("checkpoint", "", "directory for per-circuit result checkpoints")
		resume   = flag.Bool("resume", false, "reuse completed circuits from -checkpoint DIR")
		slowsim  = flag.Bool("slowsim", false, "use the naive full-resimulation fault simulator (differential debugging)")
		workers  = flag.Int("workers", 0, "goroutines for every parallel stage: concurrent circuits, ATPG and fault simulation (0 = all CPUs)")

		chaosSeed = flag.Int64("chaos.seed", 0, "seed for deterministic fault injection (same seed, same faults)")
		chaosRate = flag.Float64("chaos.rate", 0, "per-point fault injection probability in [0,1] (0 disables chaos)")

		cacheDir = flag.String("cache.dir", "", "content-addressed result-cache directory; re-runs reuse matching stage results (empty disables)")
		cacheMax = flag.Int64("cache.max", 512<<20, "result-cache size budget in bytes; least-recently-used entries are evicted (<= 0 = unlimited)")

		listen    = flag.String("listen", "", "serve live introspection (/metrics, /progress, /flight, pprof) on this address (empty disables)")
		flightOut = flag.String("flight", "flight.jsonl", "flight-recorder dump path, written on panics/failures/SIGQUIT (empty disables the recorder)")

		verbose    = flag.Bool("v", false, "log per-stage spans and telemetry to stderr")
		jsonLogs   = flag.Bool("json-logs", false, "emit logs as JSON lines (machine-readable)")
		manifest   = flag.String("manifest", "run.json", "write the run manifest here (empty disables)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut   = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()
	if !*t1 && !*t2 && !*t3 && !*fig3 && !*ablate && !*robust && !*lifetime {
		*all = true
	}
	if *all {
		*t1, *t2, *t3, *fig3 = true, true, true, true
	}
	if *resume && *ckpt == "" {
		fmt.Fprintln(os.Stderr, "tablegen: -resume requires -checkpoint DIR")
		os.Exit(2)
	}
	cfg := exper.SuiteConfig{Scale: *scale, MaxFaults: *maxF, SolverBudget: *budget, SlowSim: *slowsim, Workers: *workers}
	if *circuits != "" {
		cfg.Names = strings.Split(*circuits, ",")
	}
	opts := options{
		t1: *t1, t2: *t2, t3: *t3, fig3: *fig3,
		ablate: *ablate, robust: *robust, lifetime: *lifetime,
		steps: *steps, ckptDir: *ckpt, resume: *resume,
		verbose: *verbose, jsonLogs: *jsonLogs, manifest: *manifest,
		listen: *listen, chaosSeed: *chaosSeed, chaosRate: *chaosRate,
		cacheDir: *cacheDir, cacheMax: *cacheMax,
	}
	// The flight recorder journals structured pipeline events into a
	// fixed-size ring; it is dumped as JSONL on recovered panics, failed
	// runs and SIGQUIT, and served live at /flight under -listen.
	if *flightOut != "" || opts.listen != "" {
		opts.rec = flight.New(flight.DefaultCapacity)
		opts.rec.DumpPath = *flightOut
	}

	stopProf, err := obs.StartProfiles(*cpuprofile, *memprofile, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tablegen:", err)
		os.Exit(1)
	}

	// Two-stage interrupt handling: the first SIGINT requests a graceful
	// stop (finish + flush the circuit in flight, emit partial tables), the
	// second cancels the in-flight work itself.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "# interrupt: finishing the current circuit (Ctrl-C again to abort it)")
		close(stop)
		<-sigCh
		fmt.Fprintln(os.Stderr, "# second interrupt: aborting")
		cancel()
	}()

	// SIGQUIT dumps the flight recorder on demand without stopping the
	// run — a live post-mortem of the last ~8k pipeline events.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	defer signal.Stop(quitCh)
	go func() {
		for range quitCh {
			path, err := opts.rec.AutoDump("SIGQUIT")
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "# flight: dump failed: %v\n", err)
			case path != "":
				fmt.Fprintf(os.Stderr, "# flight: dumped %s\n", path)
			}
		}
	}()

	code := 0
	if err := run(ctx, os.Stdout, os.Stderr, cfg, opts, stop); err != nil {
		fmt.Fprintln(os.Stderr, "tablegen:", err)
		code = 1
	}
	// Flush profiles explicitly: os.Exit would skip a deferred stop.
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "tablegen:", err)
		code = 1
	}
	os.Exit(code)
}

func run(ctx context.Context, out, log io.Writer, cfg exper.SuiteConfig, opts options, stop <-chan struct{}) error {
	start := time.Now()
	cfg = cfg.Defaults()
	req := exper.TableRequest{T1: opts.t1, T2: opts.t2, T3: opts.t3}
	if opts.fig3 {
		req.Fig3Steps = opts.steps
	}

	// Telemetry: spans and metrics are always collected (the manifest
	// needs them); log output depends on -v / -json-logs. The flight
	// recorder rides the observer so every stage can journal events.
	o := obs.New(newLogger(log, opts))
	o.AttachFlight(opts.rec)
	ctx = obs.With(ctx, o)

	// Deterministic fault injection: -chaos.rate attaches an injector to
	// the context, arming every registered chaos point in the pipeline.
	// The injection decisions are a pure function of -chaos.seed, so a
	// failing run replays from its seed alone. Every fired fault is
	// counted per point (chaos.fired.<point>) and journaled in the
	// flight recorder, so a crash dump names the injection that caused it.
	var inj *chaos.Injector
	if opts.chaosRate > 0 {
		inj = chaos.New(chaos.Config{Seed: opts.chaosSeed, Rate: opts.chaosRate,
			OnFault: func(f chaos.Fault) {
				o.Counter("chaos.fired." + f.Point).Add(1)
				opts.rec.Record(flight.Event{Kind: flight.KindChaos, Name: f.Point,
					Stage: string(f.Stage), Detail: f.Kind.String(), Value: int64(f.Seq)})
			}})
		ctx = chaos.With(ctx, inj)
		fmt.Fprintf(log, "# chaos: injecting faults at rate %g (seed %d)\n", opts.chaosRate, opts.chaosSeed)
		defer func() {
			fmt.Fprintf(log, "# chaos: %d faults injected %v\n", inj.Fired(), inj.Snapshot())
		}()
	}

	// Result cache: -cache.dir attaches a content-addressed store to the
	// context; every pipeline stage (ATPG, detection, schedule) memoizes
	// through it, so a re-run with one changed knob recomputes only the
	// stages downstream of the change.
	var store *cache.Store
	if opts.cacheDir != "" {
		var err error
		store, err = cache.Open(opts.cacheDir, opts.cacheMax)
		if err != nil {
			return err
		}
		ctx = cache.With(ctx, store)
		fmt.Fprintf(log, "# cache: %s (%d entries, %d bytes)\n",
			opts.cacheDir, store.Len(), store.Bytes())
		defer func() {
			r := store.Report()
			fmt.Fprintf(log, "# cache: %d hits, %d misses, %d evictions, %d corrupt (%d entries, %d bytes)\n",
				r.Hits, r.Misses, r.Evictions, r.Corrupt, r.Entries, r.Bytes)
		}()
	}

	// Live introspection: -listen serves /metrics, /progress (SSE),
	// /flight and pprof for the duration of the run.
	var srv *obshttp.Server
	if opts.listen != "" {
		var err error
		srv, err = obshttp.Start(ctx, opts.listen, obshttp.Options{Observer: o, Flight: opts.rec})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(log, "# introspection: http://%s/ (metrics, progress, flight, debug/pprof)\n", srv.Addr())
	}

	var results []*exper.CircuitResult
	if opts.manifest != "" {
		man := obs.NewManifest("tablegen", cfg)
		defer func() {
			man.Circuits = results
			if inj != nil {
				man.Chaos = &obs.ChaosReport{Seed: inj.Seed(), Rate: opts.chaosRate,
					Fired: inj.Fired(), Points: inj.Snapshot()}
			}
			man.Cache = cache.From(ctx).Report() // nil without -cache.dir
			man.Finish(o)
			// The manifest must land even when the run itself was
			// cancelled, so the write uses a fresh context — keeping the
			// chaos injector, which tears manifests too.
			wctx := chaos.With(context.Background(), chaos.From(ctx))
			if err := man.WriteFile(wctx, opts.manifest); err != nil {
				fmt.Fprintf(log, "# manifest: %v\n", err)
				return
			}
			fmt.Fprintf(log, "# wrote manifest %s\n", opts.manifest)
		}()
	}

	dir := ""
	if opts.ckptDir != "" {
		dir = opts.ckptDir
		if !opts.resume {
			// A fresh (non-resume) run must not silently reuse stale
			// entries; clear the directory's claim by ignoring it on load.
			if err := clearCheckpoints(dir); err != nil {
				return err
			}
		}
	}

	progress := func(ev exper.SuiteEvent) {
		srv.Publish("progress", ev) // no-op without -listen
		pos := fmt.Sprintf("[%d/%d]", ev.Index+1, ev.Total)
		switch {
		case ev.Res == nil:
			fmt.Fprintf(log, "# %s %-8s computing...\n", pos, ev.Spec.Name)
		case ev.Cached:
			fmt.Fprintf(log, "# %s %-8s resumed from checkpoint (degradation: %s)\n",
				pos, ev.Res.Name, ev.Res.Degradation)
		default:
			fmt.Fprintf(log, "# %s %-8s computed in %v (degradation: %s)\n",
				pos, ev.Res.Name, ev.Res.Elapsed.Round(time.Millisecond), ev.Res.Degradation)
		}
	}
	var runErr error
	results, runErr = exper.RunSuiteCheckpointed(ctx, cfg, req, dir, stop, progress)
	if runErr != nil {
		// Post-mortem: dump the flight ring alongside the failure so the
		// event journal leading up to it is preserved.
		if path, derr := opts.rec.AutoDump("suite error: " + runErr.Error()); derr != nil {
			fmt.Fprintf(log, "# flight: dump failed: %v\n", derr)
		} else if path != "" {
			fmt.Fprintf(log, "# flight: dumped %s\n", path)
		}
	}
	if runErr != nil && len(results) == 0 {
		return runErr
	}

	fmt.Fprintf(out, "# fastmon tablegen — scale %.3f, %d circuits, fault budget %d\n",
		cfg.Scale, len(results), cfg.MaxFaults)
	fmt.Fprintf(out, "# shapes are comparable to the paper; absolute values scale with circuit size\n\n")
	if runErr != nil {
		fmt.Fprintf(out, "# PARTIAL RESULTS: %v\n\n", runErr)
	}

	var t1rows []exper.T1Row
	var t2rows []exper.T2Row
	var t3rows []exper.T3Row
	for _, res := range results {
		if res.T1 != nil {
			t1rows = append(t1rows, *res.T1)
		}
		if res.T2 != nil {
			t2rows = append(t2rows, *res.T2)
		}
		if res.T3 != nil {
			t3rows = append(t3rows, *res.T3)
		}
	}
	if opts.fig3 && len(results) > 0 && len(results[0].Fig3) > 0 {
		exper.WriteFig3(out, results[0].Fig3)
		fmt.Fprintf(out, "(circuit: %s)\n\n", results[0].Name)
	}
	if opts.t1 {
		exper.WriteTableI(out, t1rows)
		fmt.Fprintln(out)
	}
	if opts.t2 {
		exper.WriteTableII(out, t2rows)
		fmt.Fprintln(out)
	}
	if opts.t3 {
		exper.WriteTableIII(out, t3rows)
		fmt.Fprintln(out)
	}
	if opts.t1 && opts.t2 && opts.t3 && runErr == nil {
		// Qualitative comparison against the published tables.
		exper.WriteShapeChecks(out, exper.ShapeChecks(t1rows, t2rows, t3rows))
		fmt.Fprintln(out)
	}
	if runErr != nil {
		fmt.Fprintf(out, "# total %v (stopped early)\n", time.Since(start).Round(time.Millisecond))
		return nil
	}

	// The single-circuit studies need a live flow; they rerun the first
	// selected circuit (checkpoints hold only derived rows).
	if opts.ablate || opts.robust || opts.lifetime {
		specs, err := cfg.Select()
		if err != nil {
			return err
		}
		spec := specs[0]
		r, err := exper.RunCircuit(ctx, spec, cfg)
		if err != nil {
			return err
		}
		if opts.ablate {
			if err := runAblations(ctx, out, spec, cfg, r); err != nil {
				return err
			}
		}
		if opts.robust {
			if err := runRobustness(ctx, out, r); err != nil {
				return err
			}
		}
		if opts.lifetime {
			model := aging.Model{A: 0.3, N: 0.3, Seed: 5}
			pts, err := exper.LifetimeSweep(ctx, spec, cfg, model, []float64{0, 2, 5, 10, 15, 20})
			if err != nil {
				return err
			}
			exper.WriteLifetime(out, pts)
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "# total %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runAblations(ctx context.Context, out io.Writer, spec exper.Spec, cfg exper.SuiteConfig, r *exper.Run) error {
	fr, err := exper.AblateMonitorFraction(ctx, spec, cfg, []float64{0.10, 0.25, 0.50, 1.0})
	if err != nil {
		return err
	}
	dr, err := exper.AblateDelayConfigs(ctx, r)
	if err != nil {
		return err
	}
	gr, err := exper.AblateGlitch(ctx, spec, cfg, []float64{0, 1, 2})
	if err != nil {
		return err
	}
	exper.WriteAblation(out, fr, dr, gr)
	fc, err := exper.AblateFreeConfig(ctx, r)
	if err != nil {
		return err
	}
	exper.WriteFreeConfig(out, fc)
	return nil
}

func runRobustness(ctx context.Context, out io.Writer, r *exper.Run) error {
	s, err := r.Flow.BuildSchedule(ctx, schedule.ILP, 1.0)
	if err != nil {
		return err
	}
	var pts []exper.RobustnessPoint
	for _, sigma := range []float64{0, 0.02, 0.05, 0.10} {
		p, err := exper.VariationRobustness(ctx, r, s, sigma, 5, 1234)
		if err != nil {
			return err
		}
		pts = append(pts, p)
	}
	exper.WriteRobustness(out, pts)
	fmt.Fprintln(out)
	return nil
}

// newLogger maps the logging flags to a slog logger: quiet by default
// (warnings only), per-stage span lines with -v, JSON lines with
// -json-logs (combinable with -v for debug-level JSON).
func newLogger(w io.Writer, opts options) *slog.Logger {
	level := slog.LevelWarn
	if opts.verbose {
		level = slog.LevelDebug
	}
	ho := &slog.HandlerOptions{Level: level}
	if opts.jsonLogs {
		return slog.New(slog.NewJSONHandler(w, ho))
	}
	return slog.New(slog.NewTextHandler(w, ho))
}

// clearCheckpoints removes stale .json entries so a fresh run starts from
// scratch. The directory itself is kept (it may be user-created).
func clearCheckpoints(dir string) error {
	files, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
			continue
		}
		if err := os.Remove(dir + string(os.PathSeparator) + f.Name()); err != nil {
			return err
		}
	}
	return nil
}
