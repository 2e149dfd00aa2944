package sim_test

// Benchmarks for the fault-simulation core: cached baseline computation,
// event-driven vs naive single-fault simulation, and the end-to-end
// detection-range pass on the largest bundled circuit. The /event vs
// /naive sub-benchmark pairs feed cmd/benchjson, which records the speedup
// in BENCH_detect.json (CI uploads it as an artifact).

import (
	"context"
	"math/rand"
	"testing"

	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/detect"
	"fastmon/internal/exper"
	"fastmon/internal/fault"
	"fastmon/internal/monitor"
	"fastmon/internal/sim"
	"fastmon/internal/sta"
	"fastmon/internal/tunit"
)

type benchBed struct {
	c         *circuit.Circuit
	e         *sim.Engine
	placement *monitor.Placement
	cfg       detect.Config
	faults    []fault.Fault
	pats      []sim.Pattern
	horizon   tunit.Time
}

// largestBed builds the benchmark environment on the largest bundled
// circuit of the paper suite (p141k), scaled to ~1.6k gates so -bench=.
// stays laptop-friendly while the fanout cones are still a small fraction
// of the netlist — the regime the event-driven path is built for.
func largestBed(b *testing.B, nPatterns, sampleK int) *benchBed {
	b.Helper()
	spec := exper.PaperSuite[len(exper.PaperSuite)-1] // p141k
	c, err := spec.Build(0.015)
	if err != nil {
		b.Fatal(err)
	}
	lib := cell.NanGate45()
	a := cell.Annotate(c, lib)
	e := sim.NewEngine(c, a)
	r := sta.Analyze(c, a)
	clk := r.NominalClock(0.05)
	bed := &benchBed{
		c:         c,
		e:         e,
		placement: monitor.Place(r, 0.25, monitor.StandardDelays(clk)),
		cfg:       detect.Config{Clk: clk, TMin: clk / 3, Delta: lib.FaultSize(), Glitch: lib.MinPulse()},
		faults:    fault.Sample(fault.Universe(c), sampleK),
		horizon:   clk + 1,
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	nsrc := len(c.Sources())
	for i := 0; i < nPatterns; i++ {
		p := sim.Pattern{V1: make([]bool, nsrc), V2: make([]bool, nsrc)}
		for j := 0; j < nsrc; j++ {
			p.V1[j] = rng.Intn(2) == 0
			p.V2[j] = rng.Intn(2) == 0
		}
		bed.pats = append(bed.pats, p)
	}
	return bed
}

// BenchmarkBaselineCached measures one fault-free simulation into a reused
// caller-owned buffer (the per-pattern cost each detect worker amortizes
// across the whole fault list).
func BenchmarkBaselineCached(b *testing.B) {
	bed := largestBed(b, 1, 1)
	wf := make([]sim.Waveform, len(bed.c.Gates))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bed.e.BaselineInto(context.Background(), bed.pats[0], wf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultSim compares a single fault injection under the
// event-driven path (reused scratch, cone-bounded worklist) and the naive
// full-circuit resimulation it is differentially locked to.
func BenchmarkFaultSim(b *testing.B) {
	bed := largestBed(b, 1, 1)
	base, err := bed.e.Baseline(bed.pats[0])
	if err != nil {
		b.Fatal(err)
	}
	b.Run("event", func(b *testing.B) {
		sc := bed.e.NewScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := bed.faults[i%len(bed.faults)]
			bed.e.FaultSimScratch(base, f.Injection(bed.cfg.Delta), bed.horizon, sc, nil)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := bed.faults[i%len(bed.faults)]
			bed.e.FaultSimNaive(base, f.Injection(bed.cfg.Delta), bed.horizon)
		}
	})
}

// BenchmarkDetect measures the full detection-range pass (flow steps 2–4)
// on the scaled p141k: every sampled fault under every pattern, through
// the event-driven engine and the naive reference (-slowsim path).
func BenchmarkDetect(b *testing.B) {
	bed := largestBed(b, 12, 6)
	run := func(b *testing.B, slow bool) {
		cfg := bed.cfg
		cfg.SlowSim = slow
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := detect.Run(context.Background(), bed.e, bed.placement, bed.faults, bed.pats, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("event", func(b *testing.B) { run(b, false) })
	b.Run("naive", func(b *testing.B) { run(b, true) })
}
