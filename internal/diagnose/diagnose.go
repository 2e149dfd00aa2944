// Package diagnose locates small delay faults from observed FAST
// failures. Production flow: a schedule application (period, pattern,
// monitor configuration) fails on some observation points; matching the
// observed failing-tap signatures against simulated candidate-fault
// signatures ranks the likely defect sites — the classic
// cause-effect-dictionary diagnosis, here computed on the fly with the
// timing-accurate simulator instead of a precomputed dictionary.
package diagnose

import (
	"fmt"
	"sort"
	"sync/atomic"

	"fastmon/internal/fault"
	"fastmon/internal/monitor"
	"fastmon/internal/par"
	"fastmon/internal/sim"
	"fastmon/internal/tunit"
)

// Observation is one applied test with its observed outcome: the capture
// period, the pattern index, the shared monitor configuration (index into
// the placement's delays, or -1 for flip-flops only), and the set of
// observation points that mis-captured. An empty FailingTaps is a passing
// application — passes carry information too (they exonerate candidates).
type Observation struct {
	Period      tunit.Time
	Pattern     int
	Config      int
	FailingTaps []int
}

// Candidate is one ranked diagnosis result.
type Candidate struct {
	Fault fault.Fault
	// Matched counts observations whose failing-tap set the candidate
	// predicts exactly; Partial counts observations with a non-empty
	// intersection but an imperfect match.
	Matched int
	Partial int
	// Score is the ranking key in [0,1]: exact matches weighted over all
	// observations, partial matches at half weight.
	Score float64
}

// Config parameterizes a diagnosis run.
type Config struct {
	// Delta is the assumed fault size δ.
	Delta tunit.Time
	// Glitch is the pulse-filter threshold for predicted detection.
	Glitch tunit.Time
	// Workers bounds simulation goroutines (0 = GOMAXPROCS).
	Workers int
}

// predictedTaps simulates the candidate under the observation's pattern
// with the caller's scratch arena and returns the tap indices the fault
// model predicts to fail.
func predictedTaps(e *sim.Engine, sc *sim.Scratch, placement *monitor.Placement, base []sim.Waveform,
	f fault.Fault, obs Observation, cfg Config, delays []tunit.Time) []int {

	horizon := obs.Period + placement.MaxDelay() + 1
	dets := e.FaultSimScratch(base, f.Injection(cfg.Delta), horizon, sc, nil)
	var taps []int
	for _, d := range dets {
		diff := d.Diff.FilterShort(cfg.Glitch)
		if diff.Empty() {
			continue
		}
		// The standard flip-flop at this tap fails if the difference
		// covers the capture instant.
		fails := diff.Contains(obs.Period)
		// The shadow register fails if the shifted difference covers it
		// and the tap carries a monitor.
		if !fails && obs.Config >= 0 && obs.Config < len(delays) && placement.Covers(d.Tap) {
			fails = diff.Shift(delays[obs.Config]).Contains(obs.Period)
		}
		if fails {
			taps = append(taps, d.Tap)
		}
	}
	sort.Ints(taps)
	return taps
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intersects(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Run ranks the candidate faults against the observations. Patterns is the
// full pattern set the observations index into. Candidates with zero score
// are dropped; the rest are sorted by decreasing score (ties: fault order).
func Run(e *sim.Engine, placement *monitor.Placement, patterns []sim.Pattern,
	candidates []fault.Fault, observations []Observation, cfg Config) ([]Candidate, error) {

	if len(observations) == 0 {
		return nil, fmt.Errorf("diagnose: no observations")
	}
	delays := placement.Delays
	for _, obs := range observations {
		if obs.Pattern < 0 || obs.Pattern >= len(patterns) {
			return nil, fmt.Errorf("diagnose: observation references pattern %d of %d", obs.Pattern, len(patterns))
		}
		if obs.Config >= len(delays) {
			return nil, fmt.Errorf("diagnose: observation references config %d of %d", obs.Config, len(delays))
		}
	}
	// Baselines per distinct pattern.
	baselines := map[int][]sim.Waveform{}
	for _, obs := range observations {
		if _, ok := baselines[obs.Pattern]; !ok {
			b, err := e.Baseline(patterns[obs.Pattern])
			if err != nil {
				return nil, err
			}
			baselines[obs.Pattern] = b
		}
	}
	// Normalize observed tap sets.
	obsTaps := make([][]int, len(observations))
	for i, obs := range observations {
		t := append([]int(nil), obs.FailingTaps...)
		sort.Ints(t)
		obsTaps[i] = t
	}

	results := make([]Candidate, len(candidates))
	var cursor atomic.Int64
	par.Run(par.ClampWorkersFor(cfg.Workers, len(candidates)), func(int) {
		sc := e.NewScratch()
		for {
			ci := int(cursor.Add(1)) - 1
			if ci >= len(candidates) {
				return
			}
			f := candidates[ci]
			cand := Candidate{Fault: f}
			for oi, obs := range observations {
				pred := predictedTaps(e, sc, placement, baselines[obs.Pattern], f, obs, cfg, delays)
				want := obsTaps[oi]
				switch {
				case sameInts(pred, want):
					cand.Matched++
				case intersects(pred, want):
					cand.Partial++
				}
			}
			cand.Score = (float64(cand.Matched) + 0.5*float64(cand.Partial)) / float64(len(observations))
			results[ci] = cand
		}
	})

	var out []Candidate
	for _, c := range results {
		if c.Score > 0 {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out, nil
}

// ObserveFault builds the ground-truth observations a given fault produces
// under a set of (period, pattern, config) applications — the test-bench
// side of diagnosis experiments and a way to construct regression cases.
func ObserveFault(e *sim.Engine, placement *monitor.Placement, patterns []sim.Pattern,
	f fault.Fault, apps []Observation, cfg Config) ([]Observation, error) {

	out := make([]Observation, len(apps))
	sc := e.NewScratch()
	for i, app := range apps {
		base, err := e.Baseline(patterns[app.Pattern])
		if err != nil {
			return nil, err
		}
		taps := predictedTaps(e, sc, placement, base, f, app, cfg, placement.Delays)
		out[i] = Observation{Period: app.Period, Pattern: app.Pattern, Config: app.Config, FailingTaps: taps}
	}
	return out, nil
}
