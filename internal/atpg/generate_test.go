package atpg

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math/rand"
	"reflect"
	"testing"

	"fastmon/internal/circuit"
	"fastmon/internal/fault"
	"fastmon/internal/obs"
)

// TestGateEvalsWorkerIndependent pins the atpg.gate_evals work counter:
// the obs counter and the atpg span attribute report the same positive
// count.
func TestGateEvalsWorkerIndependent(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "gevals", Gates: 150, FFs: 8, Inputs: 12, Outputs: 6, Depth: 8, Seed: 3})
	var buf bytes.Buffer
	o := obs.New(slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})))
	if _, _, err := Generate(obs.With(context.Background(), o), c, fault.Universe(c), DefaultConfig(7)); err != nil {
		t.Fatal(err)
	}
	got := o.Counter("atpg.gate_evals").Value()
	if got <= 0 {
		t.Fatalf("gate_evals = %d, want > 0", got)
	}
	var rec struct {
		Span      string `json:"span"`
		GateEvals int64  `json:"gate_evals"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil || rec.Span != "atpg" {
		t.Fatalf("no atpg span record (%v): %s", err, buf.String())
	}
	if rec.GateEvals != got {
		t.Fatalf("span gate_evals %d, counter %d", rec.GateEvals, got)
	}
}

// TestFillScheduleIndependent is the property test for the per-fault
// don't-care fill: the bit stream of a fault index depends only on
// (seed, index), never on which faults were filled before it or on any
// interleaving of draws.
func TestFillScheduleIndependent(t *testing.T) {
	const seed, nFaults, nBits = int64(123), 64, 40
	want := make([][]bool, nFaults)
	for fi := 0; fi < nFaults; fi++ {
		rng := newFillRNG(seed, fi)
		bits := make([]bool, nBits)
		for k := range bits {
			bits[k] = rng.bit()
		}
		want[fi] = bits
	}
	// Redraw in a shuffled order: streams must not change.
	perm := rand.New(rand.NewSource(9)).Perm(nFaults)
	for _, fi := range perm {
		rng := newFillRNG(seed, fi)
		for k := 0; k < nBits; k++ {
			if rng.bit() != want[fi][k] {
				t.Fatalf("fault %d bit %d changed with draw order", fi, k)
			}
		}
	}
	// Distinct faults must get distinct streams (no accidental reuse).
	same := 0
	for fi := 1; fi < nFaults; fi++ {
		if reflect.DeepEqual(want[fi], want[0]) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d fault streams collide with stream 0", same)
	}
}

// TestGenerateWorkersOutsideCacheKey checks that the deprecated Workers
// field stays out of the cache key while a real input does not.
func TestGenerateWorkersOutsideCacheKey(t *testing.T) {
	c := circuit.MustParseBench("s27", circuit.S27)
	faults := fault.Universe(c)
	a := DefaultConfig(1)
	b := DefaultConfig(1)
	b.Workers = 8
	if cacheKey(c, faults, a) != cacheKey(c, faults, b) {
		t.Fatal("Workers leaked into the atpg cache key")
	}
	b.Seed = 2
	if cacheKey(c, faults, a) == cacheKey(c, faults, b) {
		t.Fatal("seed change did not change the atpg cache key")
	}
}

// TestGenerateCancelParallel checks that a canceled context stops
// generation with an error that still wraps context.Canceled.
func TestGenerateCancelParallel(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "gcancel", Gates: 400, FFs: 24, Inputs: 12, Outputs: 8, Depth: 10, Seed: 13})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Generate(ctx, c, fault.Universe(c), DefaultConfig(3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
