package atpg

import (
	"context"
	"testing"

	"fastmon/internal/circuit"
	"fastmon/internal/fault"
)

// BenchmarkGenerate measures test generation on a paper-suite-style
// netlist with the random phase disabled, so every fault takes the
// deterministic PODEM path.
func BenchmarkGenerate(b *testing.B) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "gbench", Gates: 500, FFs: 40, Inputs: 20, Outputs: 14, Depth: 14, Seed: 29})
	faults := fault.Universe(c)
	cfg := Config{RandomBatches: 0, MaxBacktracks: 300, Seed: 5, Compact: true}
	ctx := context.Background()
	// One untimed run fills the circuit's cached fanout cones, so ns/op
	// and allocs/op measure generation alone.
	if _, _, err := Generate(ctx, c, faults, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Generate(ctx, c, faults, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
