package schedule

import (
	"context"
	"math/rand"
	"testing"

	"fastmon/internal/detect"
	"fastmon/internal/interval"
	"fastmon/internal/tunit"
)

// benchData builds a randomized-but-deterministic detection-data set hard
// enough that Build spends its time in the covering solvers: every fault
// is detectable under a few patterns in a random frequency window, so
// Step 1 solves a dense partial cover and Step 2 runs one set-cover per
// selected period.
func benchData(nFaults, nPatterns int) ([]detect.FaultData, Options) {
	cfg := detect.Config{Clk: 1000, TMin: 100}
	rng := rand.New(rand.NewSource(1234))
	data := make([]detect.FaultData, nFaults)
	for i := range data {
		nPer := 2 + rng.Intn(3)
		for p := 0; p < nPer; p++ {
			lo := tunit.Time(100 + rng.Intn(700))
			hi := lo + tunit.Time(60+rng.Intn(240))
			data[i].Per = append(data[i].Per, detect.PatternRange{
				Pattern: rng.Intn(nPatterns),
				FF:      interval.FromPoints(lo, hi),
			})
		}
	}
	return data, Options{Cfg: cfg, Method: ILP, Coverage: 0.97}
}

// BenchmarkScheduleBuild measures one full schedule construction: the
// range table, Step 1, fault dropping and the Step-2 loop.
func BenchmarkScheduleBuild(b *testing.B) {
	data, opt := benchData(300, 16)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := Build(context.Background(), data, opt)
			if err != nil {
				b.Fatal(err)
			}
			if !s.FreqOptimal {
				b.Fatal("benchmark instance must solve to optimality")
			}
		}
	})
}
