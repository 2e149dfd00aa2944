package exper

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fastmon/internal/cache"
	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/core"
	"fastmon/internal/obs"
	"fastmon/internal/schedule"
)

// cacheCtx returns a context carrying a fresh observer and a store opened
// on dir, plus the store and observer for inspection.
func cacheCtx(t *testing.T, dir string) (context.Context, *cache.Store, *obs.Observer) {
	t.Helper()
	s, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(nil)
	ctx := obs.With(context.Background(), o)
	return cache.With(ctx, s), s, o
}

// renderTables runs the configured suite subset and renders Tables I-III
// to bytes — the exact artifacts tablegen emits, minus timing lines.
func renderTables(ctx context.Context, t *testing.T, cfg SuiteConfig) []byte {
	t.Helper()
	runs, err := RunSuite(ctx, cfg)
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	var t1 []T1Row
	var t2 []T2Row
	var t3 []T3Row
	for _, r := range runs {
		t1 = append(t1, TableI(r))
		row2, _, err := TableII(ctx, r)
		if err != nil {
			t.Fatalf("TableII(%s): %v", r.Spec.Name, err)
		}
		t2 = append(t2, row2)
		row3, _, _, err := TableIII(ctx, r)
		if err != nil {
			t.Fatalf("TableIII(%s): %v", r.Spec.Name, err)
		}
		t3 = append(t3, row3)
	}
	var buf bytes.Buffer
	WriteTableI(&buf, t1)
	WriteTableII(&buf, t2)
	WriteTableIII(&buf, t3)
	return buf.Bytes()
}

// TestCacheWarmEqualsCold is the headline differential check of the result
// cache: a warm re-run over the paper-suite subset must produce
// byte-identical Tables I-III, serve every stage from the cache, and never
// recompute.
func TestCacheWarmEqualsCold(t *testing.T) {
	cfg := SuiteConfig{
		Names:        []string{"s27", "c17", "s9234"},
		Scale:        0.05,
		MaxFaults:    300,
		SolverBudget: 2 * time.Second,
	}
	dir := t.TempDir()

	coldCtx, coldStore, _ := cacheCtx(t, dir)
	cold := renderTables(coldCtx, t, cfg)
	if coldStore.Report().Puts == 0 {
		t.Fatal("cold run stored no cache entries")
	}

	warmCtx, warmStore, _ := cacheCtx(t, dir)
	warm := renderTables(warmCtx, t, cfg)

	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm tables differ from cold\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	r := warmStore.Report()
	if r.Misses != 0 {
		t.Fatalf("warm run recomputed %d stages (hits=%d)", r.Misses, r.Hits)
	}
	if r.Hits == 0 {
		t.Fatal("warm run hit nothing")
	}
}

// flowSummary serializes the cache-relevant outputs of one flow — pattern
// set, detection-interval matrix and the built schedule — for byte
// comparison between cold and warm runs.
func flowSummary(t *testing.T, ctx context.Context, c *circuit.Circuit, cfg core.Config, coverage float64) []byte {
	t.Helper()
	flow, err := core.Run(ctx, c, cell.NanGate45(), nil, cfg)
	if err != nil {
		t.Fatalf("core.Run(%s): %v", c.Name, err)
	}
	var sched *schedule.Schedule
	if len(flow.TargetData) > 0 {
		sched, err = flow.BuildSchedule(ctx, schedule.Heuristic, coverage)
		if err != nil {
			t.Fatalf("BuildSchedule(%s): %v", c.Name, err)
		}
	}
	data, err := json.Marshal(struct {
		Patterns interface{}
		Stats    interface{}
		Targets  interface{}
		Schedule interface{}
	}{flow.Patterns, flow.ATPGStats, flow.TargetData, sched})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCacheWarmEqualsColdRandom extends the differential check to a fleet
// of generated circuits: for each, a warm re-run must be bit-identical to
// the cold run and serve entirely from the cache.
func TestCacheWarmEqualsColdRandom(t *testing.T) {
	n := 50
	if testing.Short() {
		n = 8
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(99))
	var totalHits int64
	for i := 0; i < n; i++ {
		spec := circuit.GenSpec{
			Name:    fmt.Sprintf("rnd%02d", i),
			Gates:   30 + rng.Intn(90),
			FFs:     2 + rng.Intn(8),
			Inputs:  4 + rng.Intn(6),
			Outputs: 3 + rng.Intn(4),
			Depth:   5 + rng.Intn(8),
			Seed:    int64(1000 + i),
		}
		c, err := circuit.Generate(spec)
		if err != nil {
			t.Fatalf("generate %s: %v", spec.Name, err)
		}
		cfg := core.Config{ATPGSeed: int64(i + 1), SolverBudget: time.Second}

		coldCtx, _, _ := cacheCtx(t, dir)
		cold := flowSummary(t, coldCtx, c, cfg, 1.0)

		warmCtx, warmStore, _ := cacheCtx(t, dir)
		warm := flowSummary(t, warmCtx, c, cfg, 1.0)

		if !bytes.Equal(cold, warm) {
			t.Fatalf("%s: warm summary differs from cold\ncold: %s\nwarm: %s", spec.Name, cold, warm)
		}
		if r := warmStore.Report(); r.Misses != 0 {
			t.Fatalf("%s: warm run recomputed %d stages", spec.Name, r.Misses)
		} else {
			totalHits += r.Hits
		}
	}
	if totalHits == 0 {
		t.Fatal("no warm run hit the cache")
	}
}

// TestCachePartialInvalidation checks the incremental-recomputation
// contract: flipping one knob invalidates exactly the stages downstream of
// it, observed through the per-stage cache counters.
func TestCachePartialInvalidation(t *testing.T) {
	spec, ok := SpecByName("s9234")
	if !ok {
		t.Fatal("s9234 missing from suite")
	}
	c, err := spec.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := core.Config{ATPGSeed: 5, FaultSampleK: 4, SolverBudget: 2 * time.Second}

	// stage hit/miss snapshot for one run.
	type counts struct{ hitA, hitD, hitS, missA, missD, missS int64 }
	run := func(cfg core.Config, coverage float64) counts {
		ctx, _, o := cacheCtx(t, dir)
		flowSummary(t, ctx, c, cfg, coverage)
		return counts{
			hitA:  o.Counter("cache.hits.atpg").Value(),
			hitD:  o.Counter("cache.hits.detect").Value(),
			hitS:  o.Counter("cache.hits.schedule").Value(),
			missA: o.Counter("cache.misses.atpg").Value(),
			missD: o.Counter("cache.misses.detect").Value(),
			missS: o.Counter("cache.misses.schedule").Value(),
		}
	}

	if got := run(base, 1.0); got.hitA != 0 || got.hitD != 0 || got.hitS != 0 {
		t.Fatalf("cold run hit the cache: %+v", got)
	}
	if got := run(base, 1.0); got != (counts{hitA: 1, hitD: 1, hitS: 1}) {
		t.Fatalf("identical re-run: %+v, want 3 hits / 0 misses", got)
	}
	// Coverage is a schedule-only knob: patterns and detection data reused.
	if got := run(base, 0.9); got.hitA != 1 || got.hitD != 1 || got.missS != 1 || got.hitS != 0 {
		t.Fatalf("coverage flip: %+v, want atpg+detect hits, schedule miss", got)
	}
	// Monitor fraction feeds detection and scheduling but not ATPG.
	frac := base
	frac.MonitorFraction = 0.5
	if got := run(frac, 1.0); got.hitA != 1 || got.missD != 1 || got.hitD != 0 || got.missS != 1 {
		t.Fatalf("monitor-fraction flip: %+v, want atpg hit, detect+schedule miss", got)
	}
	// The ATPG seed feeds everything: a flip recomputes the whole flow.
	seed := base
	seed.ATPGSeed = 6
	if got := run(seed, 1.0); got.hitA != 0 || got.hitD != 0 || got.hitS != 0 ||
		got.missA != 1 || got.missD != 1 || got.missS != 1 {
		t.Fatalf("seed flip: %+v, want all misses", got)
	}
}

// TestCacheCancelResume stops a suite run partway through, then resumes
// with the same cache directory: completed stages are served from the
// cache and the final tables are identical to an uninterrupted reference
// run.
func TestCacheCancelResume(t *testing.T) {
	cfg := SuiteConfig{
		Names:        []string{"s27", "s9234", "c17"},
		Scale:        0.05,
		MaxFaults:    300,
		SolverBudget: 2 * time.Second,
		Workers:      1,
	}
	req := TableRequest{T1: true, T2: true, T3: true}
	dir := t.TempDir()

	// Reference: uninterrupted run on a separate cache.
	refCtx, _, _ := cacheCtx(t, t.TempDir())
	ref := renderTables(refCtx, t, cfg)

	// Interrupted run: request a graceful stop as soon as the first
	// circuit completes. Workers=1 guarantees later circuits have not
	// been dispatched yet.
	stop := make(chan struct{})
	var stopped bool
	progress := func(ev SuiteEvent) {
		if ev.Res != nil && !stopped {
			stopped = true
			close(stop)
		}
	}
	partCtx, _, _ := cacheCtx(t, dir)
	partial, err := RunSuiteCheckpointed(partCtx, cfg, req, "", stop, progress)
	if err == nil {
		t.Fatal("stopped run reported no partial-result error")
	}
	if len(partial) == 0 || len(partial) == 3 {
		t.Fatalf("stopped run returned %d/3 circuits; want a strict subset", len(partial))
	}

	// Resume: same cache directory, full suite. The circuits completed
	// before the stop must be served from the cache.
	resCtx, _, o := cacheCtx(t, dir)
	resumed := renderTables(resCtx, t, cfg)
	if !bytes.Equal(ref, resumed) {
		t.Fatalf("resumed tables differ from reference\n--- ref ---\n%s\n--- resumed ---\n%s", ref, resumed)
	}
	if o.Counter("cache.hits.atpg").Value() == 0 {
		t.Fatal("resumed run did not reuse any completed ATPG stage")
	}
}
