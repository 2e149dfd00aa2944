// Command fastmon runs the complete hidden-delay-fault test flow on a
// netlist: timing analysis, monitor placement, fault classification,
// timing-accurate fault simulation, detection-range analysis and
// test-schedule optimization.
//
// Usage:
//
//	fastmon -bench s27.bench [-sdf s27.sdf] [-method ilp] [-coverage 1.0]
//	fastmon -gen s9234 -scale 0.1 -method ilp
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"time"

	"fastmon"
	"fastmon/internal/exper"
	"fastmon/internal/obs/flight"
	"fastmon/internal/obshttp"
)

func main() {
	var (
		benchPath = flag.String("bench", "", "netlist to test (.bench format)")
		vlogPath  = flag.String("verilog", "", "netlist to test (structural Verilog; hierarchies are flattened)")
		topName   = flag.String("top", "", "top module for -verilog (default: inferred)")
		sdfPath   = flag.String("sdf", "", "optional SDF delay annotation")
		genName   = flag.String("gen", "", "generate a suite circuit instead of reading one (e.g. s9234)")
		scale     = flag.Float64("scale", 0.1, "size scale for -gen (1.0 = paper size)")
		method    = flag.String("method", "ilp", "schedule method: conv, heur or ilp")
		coverage  = flag.Float64("coverage", 1.0, "target coverage of target HDFs (0..1]")
		sample    = flag.Int("sample", 0, "fault sampling stride (0 = automatic)")
		budget    = flag.Duration("budget", 10*time.Second, "time budget per exact covering solve")
		seed      = flag.Int64("seed", 1, "ATPG seed")
		workers   = flag.Int("workers", 0, "goroutines for every parallel stage: ATPG and fault simulation (0 = all CPUs)")
		patsOut   = flag.String("write-patterns", "", "write the generated pattern set to this file")
		verbose   = flag.Bool("v", false, "print per-period schedule details and stage spans")

		jsonLogs   = flag.Bool("json-logs", false, "emit stage telemetry as JSON lines on stderr")
		listen     = flag.String("listen", "", "serve live introspection (/metrics, /progress, /flight, pprof) on this address (empty disables)")
		cacheDir   = flag.String("cache.dir", "", "content-addressed result-cache directory; re-runs reuse matching stage results (empty disables)")
		cacheMax   = flag.Int64("cache.max", 512<<20, "result-cache size budget in bytes; least-recently-used entries are evicted (<= 0 = unlimited)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut   = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()
	// Ctrl-C cancels the flow: the running stage returns promptly with a
	// stage-attributed cancellation error instead of leaving a half-done
	// run hanging.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	stopProf, err := fastmon.StartProfiles(*cpuprofile, *memprofile, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fastmon:", err)
		os.Exit(1)
	}

	// Telemetry: stage spans and counters are always collected (the final
	// summary prints solver effort); log output needs -v or -json-logs.
	level := slog.LevelWarn
	if *verbose {
		level = slog.LevelDebug
	}
	var logger *slog.Logger
	if *jsonLogs {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	} else if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	}
	o := fastmon.NewObserver(logger)
	ctx = fastmon.WithObserver(ctx, o)

	// Result cache: -cache.dir memoizes ATPG, detection and scheduling so
	// repeated flows on the same netlist reuse matching stage results.
	var store *fastmon.CacheStore
	if *cacheDir != "" {
		store, err = fastmon.OpenCache(*cacheDir, *cacheMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fastmon:", err)
			os.Exit(1)
		}
		ctx = fastmon.WithCache(ctx, store)
	}

	// Live introspection: -listen attaches a flight recorder to the
	// observer and serves /metrics, /flight and pprof while the flow runs.
	if *listen != "" {
		rec := flight.New(flight.DefaultCapacity)
		o.AttachFlight(rec)
		srv, err := obshttp.Start(ctx, *listen, obshttp.Options{Observer: o, Flight: rec})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fastmon:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "# introspection: http://%s/ (metrics, flight, debug/pprof)\n", srv.Addr())
	}

	code := 0
	if err := run(ctx, *benchPath, *vlogPath, *topName, *sdfPath, *genName, *scale, *method, *coverage, *sample, *budget, *seed, *workers, *patsOut, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "fastmon:", err)
		code = 1
	}
	if store != nil {
		// Printed here, not deferred: os.Exit below skips defers.
		r := store.Report()
		fmt.Fprintf(os.Stderr, "# cache: %d hits, %d misses (%d entries, %d bytes)\n",
			r.Hits, r.Misses, r.Entries, r.Bytes)
	}
	// Flush profiles explicitly: os.Exit would skip a deferred stop.
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "fastmon:", err)
		code = 1
	}
	os.Exit(code)
}

func run(ctx context.Context, benchPath, vlogPath, topName, sdfPath, genName string, scale float64, methodName string,
	coverage float64, sample int, budget time.Duration, seed int64, workers int, patsOut string, verbose bool) error {

	lib := fastmon.NanGate45()
	var c *fastmon.Circuit
	switch {
	case benchPath != "":
		f, err := os.Open(benchPath)
		if err != nil {
			return err
		}
		defer f.Close()
		c, err = fastmon.ParseBench(benchPath, f)
		if err != nil {
			return err
		}
	case vlogPath != "":
		f, err := os.Open(vlogPath)
		if err != nil {
			return err
		}
		defer f.Close()
		c, err = fastmon.ParseVerilogHierarchy(vlogPath, f, topName)
		if err != nil {
			return err
		}
	case genName != "":
		spec, ok := exper.SpecByName(genName)
		if !ok {
			return fmt.Errorf("unknown suite circuit %q (try s9234..p141k)", genName)
		}
		var err error
		c, err = spec.Build(scale)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -bench FILE, -verilog FILE or -gen NAME")
	}

	var annot *fastmon.Annotation
	if sdfPath != "" {
		f, err := os.Open(sdfPath)
		if err != nil {
			return err
		}
		a, err := fastmon.ReadSDF(f, c, lib)
		f.Close()
		if err != nil {
			return err
		}
		annot = a
	}

	var m fastmon.Method
	switch methodName {
	case "conv":
		m = fastmon.MethodConventional
	case "heur":
		m = fastmon.MethodHeuristic
	case "ilp":
		m = fastmon.MethodILP
	default:
		return fmt.Errorf("unknown method %q", methodName)
	}

	cfg := fastmon.Config{FaultSampleK: sample, ATPGSeed: seed, SolverBudget: budget, Workers: workers}
	start := time.Now()
	flow, err := fastmon.RunAnnotated(ctx, c, lib, annot, cfg)
	if err != nil {
		return err
	}

	st := c.Stats()
	fmt.Printf("circuit   %s\n", st)
	fmt.Printf("clocks    t_nom=%v (f_nom=%v)  t_min=%v (f_max=%v)\n",
		flow.Clk, fastmon.Freq(1e12/float64(flow.Clk)), flow.TMin, fastmon.Freq(1e12/float64(flow.TMin)))
	fmt.Printf("faults    δ=%v, universe=%d (sampled), HDF candidates=%d\n",
		flow.Delta, len(flow.Universe), len(flow.HDFs))
	fmt.Printf("monitors  %s, overhead %.0f GE (%.1f%% of the design)\n",
		flow.Placement, flow.Placement.OverheadGE(), flow.Placement.RelativeOverhead(c)*100)
	fmt.Printf("patterns  %d (ATPG coverage %.2f%%, %d untestable, %d aborted)\n",
		len(flow.Patterns), flow.ATPGStats.Coverage()*100, flow.ATPGStats.Untestable, flow.ATPGStats.Aborted)
	fmt.Printf("detected  conv=%d  prop=%d  at-speed-via-monitor=%d  targets=%d\n",
		len(flow.ConvDetected), len(flow.PropDetected), len(flow.AtSpeedMonitor), len(flow.TargetIdx))

	if patsOut != "" {
		f, err := os.Create(patsOut)
		if err != nil {
			return err
		}
		if err := fastmon.WritePatterns(f, c, flow.Patterns); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("patterns  written to %s\n", patsOut)
	}

	if len(flow.TargetData) == 0 {
		fmt.Println("schedule  (no target faults: nothing to schedule)")
		return nil
	}
	s, err := flow.BuildSchedule(ctx, m, coverage)
	if err != nil {
		return err
	}
	if err := fastmon.ValidateSchedule(flow.TargetData, s, flow.ScheduleOptions(m, coverage)); err != nil {
		return fmt.Errorf("schedule validation failed: %w", err)
	}
	fmt.Printf("schedule  method=%v coverage=%d/%d |F|=%d |S|=%d (freq-optimal=%v)\n",
		s.Method, s.Covered, s.Coverable, s.NumFrequencies(), s.Size(), s.FreqOptimal)
	if s.Solver.Solves > 0 {
		fmt.Printf("solver    %d exact solves, %d nodes, %d incumbents (max gap %.2f)\n",
			s.Solver.Solves, s.Solver.Nodes, s.Solver.Incumbents, s.Solver.MaxGap)
	}
	if verbose {
		for _, p := range s.Periods {
			fmt.Printf("  period %v (%v): %d faults, %d pattern-configs\n",
				p.Period, fastmon.Freq(1e12/float64(p.Period)), len(p.Faults), len(p.Combos))
		}
	}
	fmt.Printf("elapsed   %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
