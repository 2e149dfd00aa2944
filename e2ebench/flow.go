package main

import (
	"context"
	"fmt"
	"time"

	"fastmon/internal/atpg"
	"fastmon/internal/cell"
	"fastmon/internal/core"
	"fastmon/internal/detect"
	"fastmon/internal/dot"
	"fastmon/internal/exper"
	"fastmon/internal/fault"
	"fastmon/internal/fmerr"
	"fastmon/internal/interval"
	"fastmon/internal/monitor"
	"fastmon/internal/schedule"
	"fastmon/internal/sim"
	"fastmon/internal/sta"
	"fastmon/internal/tunit"
)

// built is one schedule of a circuit, kept with the inputs Validate needs.
type built struct {
	method schedule.Method
	cov    float64
	s      *schedule.Schedule
	err    error
	data   []detect.FaultData
	opt    schedule.Options
}

// ilpProven reports whether every covering solve behind an ILP schedule
// proved optimality.
func (b built) ilpProven() bool {
	return b.s.FreqOptimal && b.s.CombosOptimal && b.s.Degradation == fmerr.DegradeNone
}

// circuitOut is the outcome of one circuit operation: its flow (Table I)
// and, when the workload asks for them, its Table II/III schedules.
type circuitOut struct {
	label      string
	elapsed    time.Duration
	err        error
	t1         exper.T1Row
	atpg       atpg.Stats
	hdfs       int
	targets    int
	candidates int
	scheds     []built
}

// tableBuilds lists the schedules of Tables II and III in the order
// exper.TableII and exper.TableIII build them.
func tableBuilds() []built {
	bs := []built{
		{method: schedule.Conventional, cov: 1},
		{method: schedule.Heuristic, cov: 1},
		{method: schedule.ILP, cov: 1},
	}
	for _, cov := range exper.TableIIICoverages {
		bs = append(bs, built{method: schedule.ILP, cov: cov})
	}
	return bs
}

// spanName names the traced span of a schedule build.
func (b built) spanName() string {
	if b.method == schedule.ILP && b.cov < 1 {
		return "schedule.partial"
	}
	return "schedule." + b.method.String()
}

func newOut(label string, r *exper.Run) circuitOut {
	f := r.Flow
	return circuitOut{
		label:   label,
		t1:      exper.TableI(r),
		atpg:    f.ATPGStats,
		hdfs:    len(f.HDFs),
		targets: len(f.TargetIdx),
	}
}

func (o *circuitOut) keep(f *core.Flow, b built, s *schedule.Schedule, err error) {
	b.s, b.err = s, err
	b.data, b.opt = f.TargetData, f.ScheduleOptions(b.method, b.cov)
	o.scheds = append(o.scheds, b)
}

// runPlain is the untraced operation: the entry points tablegen's
// exper.ComputeCircuit calls, in its order. exper.TableIII does not
// return its schedules, so its per-coverage builds are issued here.
func runPlain(ctx context.Context, in instance, w workload) circuitOut {
	cfg := w.suiteConfig()
	r, err := exper.RunCircuit(ctx, in.spec, cfg)
	if err != nil {
		return circuitOut{label: in.label, err: err}
	}
	out := newOut(in.label, r)
	if !w.schedules {
		return out
	}
	_, t2, err := exper.TableII(ctx, r)
	for _, b := range tableBuilds() {
		if b.cov == 1 {
			if err != nil {
				out.keep(r.Flow, b, nil, err)
				return out
			}
			out.keep(r.Flow, b, t2[b.method], nil)
			continue
		}
		s, err := r.Flow.BuildSchedule(ctx, b.method, b.cov)
		out.keep(r.Flow, b, s, err)
		if err != nil {
			return out
		}
	}
	return out
}

// runTraced is the traced operation: the same work as runPlain, with
// core.Run unrolled into its layer calls so each call gets a span.
func runTraced(ctx context.Context, in instance, w workload, tr *tracer, parent int) circuitOut {
	circ := tr.begin("exper.circuit", parent)
	defer tr.end(circ)
	cfg := w.suiteConfig()
	f, err := tracedFlow(ctx, in.spec, cfg, tr, circ)
	if err != nil {
		return circuitOut{label: in.label, err: err}
	}
	out := newOut(in.label, &exper.Run{Spec: in.spec, Flow: f})
	if !w.schedules {
		return out
	}
	out.candidates = discretizeProbe(f, tr, circ)
	for _, b := range tableBuilds() {
		id := tr.begin(b.spanName(), circ)
		s, err := f.BuildSchedule(ctx, b.method, b.cov)
		tr.end(id)
		out.keep(f, b, s, err)
		if err != nil {
			return out
		}
	}
	return out
}

// discretizeProbe times dot.Discretize on the monitor-model detection
// ranges. schedule.Build runs it internally, out of the benchmark's
// reach, so the traced pass calls it once more per circuit; the extra
// call is part of the tracing overhead.
func discretizeProbe(f *core.Flow, tr *tracer, parent int) int {
	probe := tr.begin("dot.probe", parent)
	defer tr.end(probe)
	ranges := make([]interval.Set, len(f.TargetData))
	for i := range f.TargetData {
		ranges[i] = f.TargetData[i].Combined(f.DetectCfg, f.Placement.Delays)
	}
	id := tr.begin("dot.discretize", probe)
	cands := dot.Discretize(ranges)
	tr.end(id)
	return len(cands)
}

// tracedFlow is exper.RunCircuit with core.Run unrolled, layer by layer,
// in core.Run's order. It must produce the same Flow; the benchmark
// checks that the traced and untraced outputs agree.
func tracedFlow(ctx context.Context, spec exper.Spec, cfg exper.SuiteConfig, tr *tracer, parent int) (*core.Flow, error) {
	id := tr.begin("circuit.generate", parent)
	c, err := spec.Build(cfg.Scale)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	lib := cell.NanGate45()
	sampleK := 1
	if cfg.MaxFaults > 0 {
		if n := len(fault.Universe(c)); n > cfg.MaxFaults {
			sampleK = (n + cfg.MaxFaults - 1) / cfg.MaxFaults
		}
	}
	ccfg := core.Config{
		FaultSampleK: sampleK,
		ATPGSeed:     spec.Seed,
		Workers:      cfg.Workers,
		SlowSim:      cfg.SlowSim,
		SolverBudget: cfg.SolverBudget,
	}.Defaults()
	f := &core.Flow{Config: ccfg, Circuit: c, Library: lib}

	id = tr.begin("sta.analyze", parent)
	f.Annot = cell.Annotate(c, lib)
	f.Timing = sta.Analyze(c, f.Annot)
	f.Clk = f.Timing.NominalClock(ccfg.ClockMargin)
	f.TMin = f.Clk.Scale(1 / ccfg.FMaxFactor)
	f.Delta = lib.FaultSize()
	delays := make([]tunit.Time, len(ccfg.DelayFractions))
	for i, fr := range ccfg.DelayFractions {
		delays[i] = f.Clk.Scale(fr)
	}
	f.Placement = monitor.Place(f.Timing, ccfg.MonitorFraction, delays)
	tr.end(id)

	id = tr.begin("fault.partition", parent)
	f.Universe = fault.Sample(fault.Universe(c), ccfg.FaultSampleK)
	f.Classes = fault.Partition(f.Universe, f.Timing, fault.ClassifyConfig{
		Clk: f.Clk, TMin: f.TMin, Delta: f.Delta,
		MaxMonitorDelay: f.Placement.MaxDelay(),
	})
	f.HDFs = f.Classes[fault.Target]
	tr.end(id)

	acfg := atpg.DefaultConfig(ccfg.ATPGSeed)
	acfg.Workers = ccfg.Workers
	id = tr.begin("atpg.generate", parent)
	f.Patterns, f.ATPGStats, err = atpg.Generate(ctx, c, f.Universe, acfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if len(f.Patterns) == 0 {
		return nil, fmt.Errorf("ATPG produced no patterns for %s", c.Name)
	}

	f.DetectCfg = detect.Config{
		Clk: f.Clk, TMin: f.TMin, Delta: f.Delta,
		Glitch: lib.MinPulse().Scale(ccfg.GlitchScale), Workers: ccfg.Workers,
		SlowSim: ccfg.SlowSim,
	}
	id = tr.begin("detect.run", parent)
	f.Data, err = detect.Run(ctx, sim.NewEngine(c, f.Annot), f.Placement, f.HDFs, f.Patterns, f.DetectCfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	extract(f, delays)
	return f, nil
}

// extract is core.Run's step 5: classify the simulated HDFs and collect
// the target faults.
func extract(f *core.Flow, delays []tunit.Time) {
	lo, hi := f.DetectCfg.ObservationWindow()
	for i := range f.Data {
		fd := &f.Data[i]
		if len(fd.Per) == 0 {
			continue
		}
		if !fd.FFUnion().Clip(lo, hi).Empty() {
			f.ConvDetected = append(f.ConvDetected, i)
		}
		if fd.Combined(f.DetectCfg, delays).Empty() {
			continue
		}
		f.PropDetected = append(f.PropDetected, i)
		atSpeed := false
		sr := fd.SRUnion()
		for _, d := range delays {
			if sr.Shift(d).Contains(f.Clk) {
				atSpeed = true
				break
			}
		}
		if atSpeed {
			f.AtSpeedMonitor = append(f.AtSpeedMonitor, i)
		} else {
			f.TargetIdx = append(f.TargetIdx, i)
		}
	}
	f.TargetData = make([]detect.FaultData, len(f.TargetIdx))
	for i, idx := range f.TargetIdx {
		f.TargetData[i] = f.Data[idx]
	}
}
