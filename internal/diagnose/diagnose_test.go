package diagnose

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"fastmon/internal/atpg"
	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/fault"
	"fastmon/internal/monitor"
	"fastmon/internal/sim"
	"fastmon/internal/sta"
	"fastmon/internal/tunit"
)

// bed wires a diagnosis testbed on a generated circuit.
func bed(t *testing.T) (*sim.Engine, *monitor.Placement, []sim.Pattern, []fault.Fault, Config, tunit.Time) {
	t.Helper()
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "diag", Gates: 200, FFs: 20, Inputs: 10, Outputs: 8, Depth: 12, Seed: 77,
	})
	lib := cell.NanGate45()
	a := cell.Annotate(c, lib)
	r := sta.Analyze(c, a)
	clk := r.NominalClock(0.05)
	placement := monitor.Place(r, 0.5, monitor.StandardDelays(clk))
	e := sim.NewEngine(c, a)
	faults := fault.Sample(fault.Universe(c), 6)
	pats, _, err := atpg.Generate(context.Background(), c, faults, atpg.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Delta: lib.FaultSize(), Glitch: lib.MinPulse()}
	return e, placement, pats, faults, cfg, clk
}

func TestDiagnoseRecoversInjectedFault(t *testing.T) {
	e, placement, pats, faults, cfg, clk := bed(t)
	// A generous application set: every pattern at three FAST periods
	// under different configurations. Faults invisible under all of these
	// are skipped (they are simply not diagnosable from these tests).
	var apps []Observation
	for pi := range pats {
		apps = append(apps,
			Observation{Period: clk * 2 / 5, Pattern: pi, Config: 3},
			Observation{Period: clk * 3 / 5, Pattern: pi, Config: 1},
			Observation{Period: clk * 4 / 5, Pattern: pi, Config: -1},
		)
	}
	rng := rand.New(rand.NewSource(5))
	recovered, trials := 0, 0
	for trial := 0; trial < 12 && trials < 6; trial++ {
		truth := faults[rng.Intn(len(faults))]
		obs, err := ObserveFault(e, placement, pats, truth, apps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		anyFail := false
		for _, o := range obs {
			if len(o.FailingTaps) > 0 {
				anyFail = true
			}
		}
		if !anyFail {
			continue // fault invisible under these applications: skip
		}
		// Keep the diagnosis cheap: at most 8 observations, mixing fails
		// and passes.
		var kept []Observation
		for _, o := range obs {
			if len(o.FailingTaps) > 0 && len(kept) < 5 {
				kept = append(kept, o)
			}
		}
		for _, o := range obs {
			if len(o.FailingTaps) == 0 && len(kept) < 8 {
				kept = append(kept, o)
			}
		}
		obs = kept
		trials++
		cands, err := Run(e, placement, pats, faults, obs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) == 0 {
			t.Fatalf("no candidates for visible fault %+v", truth)
		}
		// The true fault must be among the top-scored candidates (perfect
		// score by construction: predictions replayed exactly).
		topScore := cands[0].Score
		found := false
		for _, cd := range cands {
			if cd.Score < topScore {
				break
			}
			if cd.Fault == truth {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("true fault %+v not in top candidates (top score %.2f)", truth, topScore)
		}
		recovered++
	}
	if trials == 0 {
		t.Fatal("no visible trials at all")
	}
	if recovered != trials {
		t.Fatalf("recovered %d of %d visible faults", recovered, trials)
	}
}

func TestDiagnosePassingApplicationsExonerate(t *testing.T) {
	e, placement, pats, faults, cfg, clk := bed(t)
	// An all-passing observation set: candidates predicting failures score
	// below candidates predicting passes; a fault that is quiet under the
	// application matches exactly.
	obs := []Observation{{Period: clk, Pattern: 0, Config: -1, FailingTaps: nil}}
	cands, err := Run(e, placement, pats, faults, obs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All top candidates must predict a pass (exact match with empty set).
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if cands[0].Matched != 1 {
		t.Fatalf("top candidate does not match the pass: %+v", cands[0])
	}
}

// TestDiagnoseWorkerCountIndependent pins the ranking to be the same on
// the inline single-worker path and in the goroutine pool, where every
// worker simulates with its own scratch arena.
func TestDiagnoseWorkerCountIndependent(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	e, placement, pats, faults, cfg, clk := bed(t)
	truth := faults[len(faults)/3]
	var apps []Observation
	for pi := range pats {
		apps = append(apps,
			Observation{Period: clk * 2 / 5, Pattern: pi, Config: 3},
			Observation{Period: clk * 4 / 5, Pattern: pi, Config: -1})
	}
	obs, err := ObserveFault(e, placement, pats, truth, apps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ranked [][]Candidate
	for _, w := range []int{1, 4} {
		cfg.Workers = w
		cands, err := Run(e, placement, pats, faults, obs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ranked = append(ranked, cands)
	}
	if len(ranked[0]) == 0 {
		t.Fatal("no candidates")
	}
	if !reflect.DeepEqual(ranked[0], ranked[1]) {
		t.Fatalf("Workers=1 and Workers=4 rank differently:\n%+v\n%+v", ranked[0], ranked[1])
	}
}

func TestDiagnoseValidation(t *testing.T) {
	e, placement, pats, faults, cfg, clk := bed(t)
	if _, err := Run(e, placement, pats, faults, nil, cfg); err == nil {
		t.Fatal("empty observations accepted")
	}
	bad := []Observation{{Period: clk, Pattern: len(pats) + 5, Config: 0}}
	if _, err := Run(e, placement, pats, faults, bad, cfg); err == nil {
		t.Fatal("out-of-range pattern accepted")
	}
	bad2 := []Observation{{Period: clk, Pattern: 0, Config: 99}}
	if _, err := Run(e, placement, pats, faults, bad2, cfg); err == nil {
		t.Fatal("out-of-range config accepted")
	}
}

func TestHelpers(t *testing.T) {
	if !sameInts([]int{1, 2}, []int{1, 2}) || sameInts([]int{1}, []int{2}) || sameInts([]int{1}, []int{1, 2}) {
		t.Fatal("sameInts wrong")
	}
	if !intersects([]int{1, 3, 5}, []int{2, 3}) || intersects([]int{1, 2}, []int{3, 4}) || intersects(nil, []int{1}) {
		t.Fatal("intersects wrong")
	}
}
