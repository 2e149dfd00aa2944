package atpg_test

import (
	"fmt"
	"math/rand"
	"testing"

	"fastmon/internal/atpg"
	"fastmon/internal/circuit"
	"fastmon/internal/exper"
)

// TestImplyMatchesConeScan is the byte-identity argument for event-driven
// implication: on s27, c17, the paper suite at differential scale and 50
// generated netlists, the level-worklist implySrc reaches exactly the
// state of the cone-scan oracle and of a full imply after every decision.
func TestImplyMatchesConeScan(t *testing.T) {
	circuits := []*circuit.Circuit{
		circuit.MustParseBench("s27", circuit.S27),
		circuit.MustParseBench("c17", circuit.C17),
	}
	for _, spec := range exper.PaperSuite {
		c, err := spec.Build(0.02)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		circuits = append(circuits, c)
	}
	rng := rand.New(rand.NewSource(8128))
	for i := 0; i < 50; i++ {
		circuits = append(circuits, circuit.MustGenerate(circuit.GenSpec{
			Name:    fmt.Sprintf("rand%02d", i),
			Gates:   20 + rng.Intn(300),
			FFs:     rng.Intn(16),
			Inputs:  2 + rng.Intn(10),
			Outputs: 1 + rng.Intn(8),
			Depth:   3 + rng.Intn(16),
			Seed:    rng.Int63(),
		}))
	}
	for i, c := range circuits {
		atpg.CheckImplyMatchesConeScan(t, c, int64(i)+1)
	}
}
