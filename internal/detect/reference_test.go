package detect_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/detect"
	"fastmon/internal/exper"
	"fastmon/internal/fault"
	"fastmon/internal/interval"
	"fastmon/internal/monitor"
	"fastmon/internal/sim"
	"fastmon/internal/sta"
)

// refBed is one circuit wired for the reference comparison.
type refBed struct {
	e         *sim.Engine
	placement *monitor.Placement
	cfg       detect.Config
	faults    []fault.Fault
	pats      []sim.Pattern
}

func newRefBed(t *testing.T, c *circuit.Circuit, seed int64) refBed {
	t.Helper()
	lib := cell.NanGate45()
	a := cell.Annotate(c, lib)
	r := sta.Analyze(c, a)
	clk := r.NominalClock(0.05)
	bed := refBed{
		e:         sim.NewEngine(c, a),
		placement: monitor.Place(r, 0.25, monitor.StandardDelays(clk)),
		cfg:       detect.Config{Clk: clk, TMin: clk / 3, Delta: lib.FaultSize(), Glitch: lib.MinPulse()},
		faults:    fault.Sample(fault.Universe(c), 4),
	}
	rng := rand.New(rand.NewSource(seed))
	nsrc := len(c.Sources())
	for i := 0; i < 16; i++ {
		p := sim.Pattern{V1: make([]bool, nsrc), V2: make([]bool, nsrc)}
		for j := range p.V1 {
			p.V1[j] = rng.Intn(2) == 0
			p.V2[j] = rng.Intn(2) == 0
		}
		bed.pats = append(bed.pats, p)
	}
	return bed
}

// reference is the plain serial fault × pattern loop detect.Run must
// reproduce: one Baseline per pattern, FaultSim per pair, per-tap glitch
// filtering, the FF/SR split by monitor coverage, and no simulation of
// faults whose cone reaches no observation point.
func reference(t *testing.T, bed refBed) []detect.FaultData {
	t.Helper()
	bases := make([][]sim.Waveform, len(bed.pats))
	for pi, p := range bed.pats {
		b, err := bed.e.Baseline(p)
		if err != nil {
			t.Fatal(err)
		}
		bases[pi] = b
	}
	out := make([]detect.FaultData, len(bed.faults))
	for fi, f := range bed.faults {
		out[fi].Fault = f
		if !bed.e.C.ReachesTap(f.Gate) {
			continue
		}
		for pi := range bed.pats {
			var ff, sr interval.Set
			for _, d := range bed.e.FaultSim(bases[pi], f.Injection(bed.cfg.Delta), bed.cfg.Clk+1) {
				diff := d.Diff.FilterShort(bed.cfg.Glitch)
				ff = ff.Union(diff)
				if bed.placement.Covers(d.Tap) {
					sr = sr.Union(diff)
				}
			}
			if !ff.Empty() || !sr.Empty() {
				out[fi].Per = append(out[fi].Per, detect.PatternRange{Pattern: pi, FF: ff, SR: sr})
			}
		}
	}
	return out
}

// hits counts the detecting (fault, pattern) pairs, so a comparison of
// two empty results cannot pass vacuously.
func hits(data []detect.FaultData) int {
	n := 0
	for _, fd := range data {
		n += len(fd.Per)
	}
	return n
}

func sameData(t *testing.T, label string, got, want []detect.FaultData) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d faults, reference has %d", label, len(got), len(want))
	}
	for fi := range want {
		g, w := got[fi], want[fi]
		if g.Fault != w.Fault || len(g.Per) != len(w.Per) {
			t.Fatalf("%s: fault %d: %d detecting patterns, reference has %d", label, fi, len(g.Per), len(w.Per))
		}
		for i := range w.Per {
			a, b := g.Per[i], w.Per[i]
			if a.Pattern != b.Pattern || !a.FF.Equal(b.FF) || !a.SR.Equal(b.SR) {
				t.Fatalf("%s: fault %d, pattern %d: got FF %v SR %v, reference FF %v SR %v",
					label, fi, b.Pattern, a.FF, a.SR, b.FF, b.SR)
			}
		}
	}
}

// TestRunMatchesReference locks the parallel pattern-major driver to the
// serial reference loop on every paper circuit at several worker counts,
// and the SlowSim path (naive engine, no cone skip) on s27. -short checks
// every fourth suite circuit.
func TestRunMatchesReference(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })

	for i, spec := range exper.PaperSuite {
		if testing.Short() && i%4 != 0 {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			c, err := spec.Build(0.02)
			if err != nil {
				t.Fatal(err)
			}
			bed := newRefBed(t, c, spec.Seed)
			want := reference(t, bed)
			if hits(want) == 0 {
				t.Fatal("reference detects nothing")
			}
			for _, w := range []int{1, 2, 8} {
				cfg := bed.cfg
				cfg.Workers = w
				got, err := detect.Run(context.Background(), bed.e, bed.placement, bed.faults, bed.pats, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameData(t, fmt.Sprintf("Workers=%d", w), got, want)
			}
		})
	}

	t.Run("s27/slowsim", func(t *testing.T) {
		bed := newRefBed(t, circuit.MustParseBench("s27", circuit.S27), 27)
		want := reference(t, bed)
		if hits(want) == 0 {
			t.Fatal("reference detects nothing")
		}
		for _, w := range []int{1, 2} {
			cfg := bed.cfg
			cfg.Workers = w
			cfg.SlowSim = true
			got, err := detect.Run(context.Background(), bed.e, bed.placement, bed.faults, bed.pats, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameData(t, fmt.Sprintf("SlowSim Workers=%d", w), got, want)
		}
	})
}
