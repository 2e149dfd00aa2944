// Command e2ebench is the end-to-end benchmark of the Fig.-4 flow. It runs
// a named workload through the exper/core entry points tablegen uses,
// checks every output, and prints the workload's metrics as one JSON
// object on the last line of standard output.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash e2ebench/run.sh --workload flow-atpg --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of untraced passes;
// with --trace 1 it alternates untraced and traced passes and prints the
// per-layer metrics of the traced ones. With --summarize it reads the
// result lines of several runs from standard input and prints each
// metric's median, quartiles and spread. See README.md for the workloads
// and for which layer metric should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"fastmon/internal/obs"
	"fastmon/internal/par"
	"fastmon/internal/schedule"
)

// setupProbes is the number of cold starts timed before the passes and
// again after them; setup_s is the median of all of them, so a burst of
// load from outside the benchmark cannot decide it.
const setupProbes = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload name: flow-atpg, schedule-exact or tables-budget")
		seed    = flag.Int64("seed", 0, "run seed, recorded with the result (the workloads' inputs are fixed; see README.md)")
		seconds = flag.Int("seconds", 30, "measure for this long; at least one pass always runs")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from traced passes")
		spans   = flag.String("spans", "", "with --trace 1, write the recorded spans to this file as JSON lines")
		probe   = flag.Bool("setup-probe", false, "set up and exit (used to time set-up)")
		summary = flag.Bool("summarize", false, "read result lines from standard input and print each metric's median and quartiles")
	)
	flag.Parse()
	if *summary {
		if err := summarize(os.Stdin, os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fail(errors.New("--trace must be 0 or 1"))
	}
	if _, _, err := setup(*name); err != nil {
		fail(err)
	}
	if *probe {
		return
	}
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans)
	if err == nil {
		err = printJSON(res)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(2)
}

// setup is all a run does before its first timed operation: it resolves
// the workload and its circuit instances. Circuit generation stays inside
// the timed operation, as tablegen pays for it on every run.
func setup(name string) (workload, []instance, error) {
	w, err := lookup(name)
	if err != nil {
		return w, nil, err
	}
	insts, err := w.resolve()
	return w, insts, err
}

// probeSetup times cold starts of this binary, each from launching it to
// the end of setup, and appends the times to ts.
func probeSetup(ts []float64, name string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return ts, err
	}
	for range setupProbes {
		cmd := exec.Command(exe, "--setup-probe", "--workload", name)
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return ts, fmt.Errorf("setup probe: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return ts, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, seconds time.Duration, traced bool, spansPath string) (*result, error) {
	prov := collectProvenance(name, seed, traced)
	setupTimes, err := probeSetup(nil, name)
	if err != nil {
		return nil, err
	}
	w, insts, err := setup(name)
	if err != nil {
		return nil, err
	}
	prov.SolverBudget = w.budget.String()
	if err := printJSON(map[string]any{"provenance": prov}); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "# %s seed %d: %d circuits, %s on %s, %d CPUs, GOMAXPROCS %d\n",
		w.name, seed, len(insts), prov.GoVersion, prov.CPUModel, prov.NProc, prov.GOMAXPROCS)

	var (
		t        tally
		walls    []float64
		layers   []map[string]float64
		tr       = newTracer()
		validate = func(b built) error { return schedule.Validate(b.data, b.s, b.opt) }
	)
	start := time.Now()
	for {
		passStart := time.Now()
		// tablegen always collects spans and metrics through an observer.
		ctx := obs.With(context.Background(), obs.New(nil))
		outs, wall := runPass(ctx, insts, func(ctx context.Context, in instance) circuitOut {
			return runPlain(ctx, in, w)
		})
		walls = append(walls, wall.Seconds())
		t.check(outs, w, validate)
		report("pass", wall, outs)

		if traced {
			mark := len(tr.snapshot())
			ctx := obs.With(context.Background(), obs.New(nil))
			root := tr.begin("pass", 0)
			outs, wall := runPass(ctx, insts, func(ctx context.Context, in instance) circuitOut {
				return runTraced(ctx, in, w, tr, root)
			})
			tr.end(root)
			t.check(outs, w, func(b built) error {
				id := tr.begin("schedule.validate", 0)
				defer tr.end(id)
				return validate(b)
			})
			l := layerMetrics(tr.snapshot()[mark:], outs, wall, len(insts))
			l["trace.overhead_share"] = wall.Seconds()/walls[len(walls)-1] - 1
			layers = append(layers, l)
			report("traced pass", wall, outs)
		}
		if time.Since(start)+time.Since(passStart) > seconds {
			break
		}
	}
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "# check:", p)
	}
	if setupTimes, err = probeSetup(setupTimes, name); err != nil {
		return nil, err
	}

	res := &result{Correct: t.correct(), Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if traced {
		for _, def := range perLayer {
			var vs []float64
			for _, l := range layers {
				vs = append(vs, l[def.name])
			}
			res.Metrics[def.name] = metric{median(vs), def.unit}
		}
		if spansPath != "" {
			if err := writeSpans(spansPath, tr.snapshot()); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	passes := float64(t.passes)
	e2e := map[string]float64{
		"wall_s":             median(walls),
		"setup_s":            median(setupTimes),
		"peak_rss_mb":        peakRSSMB(),
		"passed_share":       share(float64(t.attempted-t.rejected), float64(t.attempted), 1),
		"proven_share":       share(float64(t.ilpProven), float64(t.ilpBuilt), 1),
		"ilp_freqs_vs_heur":  share(float64(t.ilpFreqs), float64(t.heurFreqs), 1),
		"ilp_combos_vs_heur": share(float64(t.ilpCombos), float64(t.heurCombos), 1),
		"patterns":           float64(t.patterns) / passes,
		"hdf_prop":           float64(t.hdfProp) / passes,
	}
	for _, def := range endToEnd {
		res.Metrics[def.name] = metric{e2e[def.name], def.unit}
	}
	return res, nil
}

// layerMetrics derives the per-layer metrics of one traced pass from its
// spans (self time per layer) and its outputs (work counts).
func layerMetrics(spans []span, outs []circuitOut, wall time.Duration, circuits int) map[string]float64 {
	self := selfTimes(spans)
	m := map[string]float64{}
	for _, name := range []string{
		"circuit.generate", "sta.analyze", "fault.partition", "atpg.generate", "detect.run",
		"dot.discretize", "schedule.conv", "schedule.heur", "schedule.ilp", "schedule.partial",
		"schedule.validate",
	} {
		m[name+"_s"] = self[name].Seconds()
	}
	var (
		detected, testable, random, pairs int
		busy, maxCircuit                  time.Duration
		unproven                          int
		maxGap                            float64
	)
	for _, o := range outs {
		busy += o.elapsed
		maxCircuit = max(maxCircuit, o.elapsed)
		if o.err != nil {
			continue
		}
		a := o.atpg
		m["fault.hdf_candidates"] += float64(o.hdfs)
		m["atpg.backtracks"] += float64(a.Backtracks)
		m["atpg.aborted"] += float64(a.Aborted)
		m["atpg.untestable"] += float64(a.Untestable)
		m["atpg.raw_patterns"] += float64(a.RawPatterns)
		m["atpg.patterns"] += float64(a.Patterns)
		detected += a.Detected
		testable += a.Faults - a.Untestable
		random += a.RandomDetected
		pairs += o.hdfs * a.Patterns
		m["detect.targets"] += float64(o.targets)
		m["dot.candidates"] += float64(o.candidates)
		for _, b := range o.scheds {
			if b.err != nil || b.method != schedule.ILP {
				continue
			}
			st := b.s.Solver
			m["ilp.solves"] += float64(st.Solves)
			m["ilp.nodes"] += float64(st.Nodes)
			m["ilp.incumbents"] += float64(st.Incumbents)
			if !b.ilpProven() {
				unproven++
			}
			maxGap = max(maxGap, st.MaxGap)
		}
	}
	m["atpg.random_share"] = share(float64(random), float64(detected), 0)
	m["atpg.coverage"] = share(float64(detected), float64(testable), 0)
	m["detect.pairs"] = float64(pairs)
	m["detect.pairs_per_s"] = share(float64(pairs), m["detect.run_s"], 0)
	m["ilp.nodes_per_s"] = share(m["ilp.nodes"], m["schedule.ilp_s"]+m["schedule.partial_s"], 0)
	m["ilp.unproven"] = float64(unproven)
	m["ilp.max_gap"] = maxGap
	m["exper.circuit_max_s"] = maxCircuit.Seconds()
	workers := par.ClampWorkersFor(0, circuits)
	m["exper.busy_share"] = share(busy.Seconds(), wall.Seconds()*float64(workers), 0)
	return m
}

// report prints one line per circuit of a pass to standard error.
func report(what string, wall time.Duration, outs []circuitOut) {
	fmt.Fprintf(os.Stderr, "# %s: %.3fs\n", what, wall.Seconds())
	for _, o := range outs {
		fmt.Fprintf(os.Stderr, "#   %-12s %7.3fs |P| %4d prop %5d conv %5d", o.label, o.elapsed.Seconds(), o.t1.P, o.t1.Prop, o.t1.Conv)
		for _, b := range o.scheds {
			if b.err == nil {
				fmt.Fprintf(os.Stderr, " %v@%.2f:%d/%d", b.method, b.cov, b.s.NumFrequencies(), b.s.Size())
				if b.method == schedule.ILP && !b.ilpProven() {
					fmt.Fprint(os.Stderr, "*")
				}
			}
		}
		fmt.Fprintln(os.Stderr)
	}
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printJSON(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// provenance identifies what a result was measured on and with; a result
// without it cannot be compared with another.
type provenance struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Trace        bool   `json:"trace"`
	SolverBudget string `json:"solver_budget"`
	CPUModel     string `json:"cpu_model"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	GitRev       string `json:"git_rev"`
	SourceSHA256 string `json:"source_sha256"`
}

func collectProvenance(name string, seed int64, traced bool) provenance {
	return provenance{
		Workload:     name,
		Seed:         seed,
		Trace:        traced,
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GitRev:       gitRev(),
		SourceSHA256: sourceHash("."),
	}
}
