package atpg

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"fastmon/internal/circuit"
	"fastmon/internal/fault"
	"fastmon/internal/sim"
)

// diffCircuits builds the pinned workload: the two bench netlists plus
// generated circuits of varying shape.
func diffCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	out := []*circuit.Circuit{
		circuit.MustParseBench("s27", circuit.S27),
		circuit.MustParseBench("c17", circuit.C17),
	}
	specs := []circuit.GenSpec{
		{Name: "g150", Gates: 150, FFs: 8, Inputs: 12, Outputs: 6, Depth: 8, Seed: 3},
		{Name: "g300", Gates: 300, FFs: 24, Inputs: 10, Outputs: 8, Depth: 12, Seed: 17},
	}
	if !testing.Short() {
		specs = append(specs,
			circuit.GenSpec{Name: "g600", Gates: 600, FFs: 40, Inputs: 16, Outputs: 12, Depth: 16, Seed: 99})
	}
	for _, s := range specs {
		out = append(out, circuit.MustGenerate(s))
	}
	return out
}

// patternDigest is the SHA-256 of a generated test set and its Stats: one
// line per pattern with the V1 and V2 bits, then the Stats fields.
func patternDigest(pats []sim.Pattern, st Stats) string {
	h := sha256.New()
	bits := func(v []bool) {
		for _, b := range v {
			if b {
				h.Write([]byte{'1'})
			} else {
				h.Write([]byte{'0'})
			}
		}
	}
	for _, p := range pats {
		bits(p.V1)
		h.Write([]byte{'|'})
		bits(p.V2)
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(h, "%+v", st)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratePinned pins the exact output of Generate — every pattern
// bit and every Stats field — on the differential netlists and on one
// circuit with the random phase disabled, so every fault takes the
// deterministic PODEM path. A change to the search order, the fill
// stream, dropping or compaction shows up here as a digest mismatch.
func TestGeneratePinned(t *testing.T) {
	want := map[string]string{
		"s27":  "be4b6f1d9f27c0825aea6858bf5b770c6a9964818c366e65653ee111cd9e5341",
		"c17":  "9a8ac475d2e3bec214fc6d16fe8d73cfd88ace783f22c8ef06c4fa348986bcae",
		"g150": "015390a56b60312be3a446943922d3f2b29053c85016ca5c52807bc560de5c46",
		"g300": "9337946c2a18582c12d0965404d73a970556772728ddf8e8fac2ad7f6dc5371f",
		"g600": "0893d9ab535098b1298e3e7f19e171ce2a51e94c935db38c9b2873df43c25fc3",
		"gdet": "132a06ec1725f4e099ee2adabc30d3aab6e327ed762dcb73370f6b4ff03a49b6",
	}
	ctx := context.Background()
	check := func(c *circuit.Circuit, cfg Config) {
		t.Helper()
		pats, st, err := Generate(ctx, c, fault.Universe(c), cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if got := patternDigest(pats, st); got != want[c.Name] {
			t.Errorf("%s: digest %s, want %s (%d patterns, %+v)", c.Name, got, want[c.Name], len(pats), st)
		}
	}
	for _, c := range diffCircuits(t) {
		check(c, DefaultConfig(7))
	}
	gdet := circuit.MustGenerate(circuit.GenSpec{
		Name: "gdet", Gates: 400, FFs: 24, Inputs: 12, Outputs: 8, Depth: 10, Seed: 41})
	check(gdet, Config{RandomBatches: 0, MaxBacktracks: 600, Seed: 11, Compact: true})
}

// TestGenerateParallelMatchesSerial checks that the deprecated
// Config.Workers has no effect: every worker count yields byte-identical
// patterns and Stats on the pinned netlists.
func TestGenerateParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	for _, c := range diffCircuits(t) {
		faults := fault.Universe(c)
		cfg := DefaultConfig(7)
		cfg.Workers = 1
		base, baseStats, err := Generate(ctx, c, faults, cfg)
		if err != nil {
			t.Fatalf("%s serial: %v", c.Name, err)
		}
		for _, w := range []int{2, 8} {
			cfg.Workers = w
			got, gotStats, err := Generate(ctx, c, faults, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.Name, w, err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("%s workers=%d: pattern set diverged from serial (%d vs %d patterns)",
					c.Name, w, len(base), len(got))
			}
			if baseStats != gotStats {
				t.Fatalf("%s workers=%d: stats diverged:\nserial   %+v\nparallel %+v",
					c.Name, w, baseStats, gotStats)
			}
		}
	}
}

// TestGenerateParallelSkipsRandomPhase repeats the Workers check with the
// random phase disabled, so every fault takes the deterministic PODEM
// path, and checks that RandomBatches=0 really skips the random phase.
func TestGenerateParallelSkipsRandomPhase(t *testing.T) {
	ctx := context.Background()
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "gdet", Gates: 400, FFs: 24, Inputs: 12, Outputs: 8, Depth: 10, Seed: 41})
	faults := fault.Universe(c)
	cfg := Config{RandomBatches: 0, MaxBacktracks: 600, Seed: 11, Compact: true, Workers: 1}
	base, baseStats, err := Generate(ctx, c, faults, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if baseStats.RandomDetected != 0 {
		t.Fatalf("random phase ran with RandomBatches=0: %+v", baseStats)
	}
	for _, w := range []int{2, 8} {
		cfg.Workers = w
		got, gotStats, err := Generate(ctx, c, faults, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) || baseStats != gotStats {
			t.Fatalf("workers=%d diverged from serial", w)
		}
	}
}
