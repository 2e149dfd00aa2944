package exper

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fastmon/internal/fmerr"
)

func fakeResult(name string, cfg SuiteConfig) *CircuitResult {
	cfg = cfg.Defaults()
	return &CircuitResult{
		Name:         name,
		Scale:        cfg.Scale,
		MaxFaults:    cfg.MaxFaults,
		SolverBudget: cfg.SolverBudget,
		T1:           &T1Row{Name: name, Gates: 123, Conv: 4, Prop: 6, Target: 2},
		Degradation:  fmerr.DegradeNone.String(),
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := smallCfg()
	want := fakeResult("s9234", cfg)
	want.Fig3 = []Fig3Point{{FMaxFactor: 1, ConvPct: 10, PropPct: 20}}
	if err := SaveCheckpoint(context.Background(), dir, want); err != nil {
		t.Fatal(err)
	}
	entries, skipped, err := LoadCheckpoints(context.Background(), dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped entries on clean load: %v", skipped)
	}
	got, ok := entries["s9234"]
	if !ok {
		t.Fatal("entry missing after round trip")
	}
	if got.T1 == nil || *got.T1 != *want.T1 || len(got.Fig3) != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// No stray temp files left behind.
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", f.Name())
		}
	}
}

func TestLoadCheckpointsSkipsBadEntries(t *testing.T) {
	dir := t.TempDir()
	cfg := smallCfg()
	if err := SaveCheckpoint(context.Background(), dir, fakeResult("s9234", cfg)); err != nil {
		t.Fatal(err)
	}
	// Corrupt JSON.
	if err := os.WriteFile(filepath.Join(dir, "s13207.json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Entry computed under a different configuration.
	stale := fakeResult("s15850", cfg)
	stale.Scale = 0.5
	if err := SaveCheckpoint(context.Background(), dir, stale); err != nil {
		t.Fatal(err)
	}
	// Entry whose content names a different circuit than its file.
	if err := os.WriteFile(filepath.Join(dir, "s35932.json"),
		[]byte(`{"name":"imposter","scale":0.05,"max_faults":800}`), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, skipped, err := LoadCheckpoints(context.Background(), dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries["s9234"] == nil {
		t.Fatalf("entries = %v", entries)
	}
	if len(skipped) != 3 {
		t.Fatalf("skipped = %v, want 3 entries", skipped)
	}
}

// TestCheckpointBudgetMismatchRecomputes: the solver budget is part of an
// entry's configuration fingerprint, because budget-bound ILP incumbents
// change the T2/T3 rows. A resumed run under another budget recomputes
// the circuit, and so does a legacy entry that never recorded a budget.
func TestCheckpointBudgetMismatchRecomputes(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := smallCfg()
	cfg.SolverBudget = 30 * time.Second
	if err := SaveCheckpoint(ctx, dir, fakeResult("s9234", cfg)); err != nil {
		t.Fatal(err)
	}
	if entries, _, err := LoadCheckpoints(ctx, dir, cfg); err != nil || entries["s9234"] == nil {
		t.Fatalf("same-budget entry not served: entries=%v err=%v", entries, err)
	}

	other := cfg
	other.SolverBudget = 5 * time.Second
	entries, skipped, err := LoadCheckpoints(ctx, dir, other)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || len(skipped) != 1 || !strings.Contains(skipped[0], "budget 30s") {
		t.Fatalf("other-budget entry: entries=%v skipped=%v", entries, skipped)
	}
	var cachedSeen, computed bool
	results, err := RunSuiteCheckpointed(ctx, other, TableRequest{T1: true}, dir, nil,
		func(ev SuiteEvent) {
			if ev.Res != nil {
				cachedSeen = cachedSeen || ev.Cached
				computed = computed || !ev.Cached
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if cachedSeen || !computed {
		t.Fatalf("resume under another budget served the entry (cached=%v computed=%v)", cachedSeen, computed)
	}
	if len(results) != 1 || results[0].SolverBudget != other.SolverBudget {
		t.Fatalf("recomputed entry does not record its budget: %+v", results)
	}
	if entries, _, err := LoadCheckpoints(ctx, dir, other); err != nil || entries["s9234"] == nil {
		t.Fatalf("recomputed entry not checkpointed under the new budget: entries=%v err=%v", entries, err)
	}

	legacy := `{"name":"s9234","scale":0.05,"max_faults":800,"t1":{"Name":"s9234"}}`
	if err := os.WriteFile(checkpointPath(dir, "s9234"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if entries, _, err := LoadCheckpoints(ctx, dir, smallCfg()); err != nil || len(entries) != 0 {
		t.Fatalf("legacy entry without a budget was served: entries=%v err=%v", entries, err)
	}
}

func TestLoadCheckpointsMissingDir(t *testing.T) {
	entries, skipped, err := LoadCheckpoints(context.Background(), filepath.Join(t.TempDir(), "nope"), smallCfg())
	if err != nil || len(entries) != 0 || len(skipped) != 0 {
		t.Fatalf("missing dir: entries=%v skipped=%v err=%v", entries, skipped, err)
	}
}

// TestResumeSkipsCompletedCircuits is the round-trip resume scenario: a
// checkpoint directory holds one good entry and one corrupt entry; the
// resumed suite run serves the good circuit from the checkpoint and
// recomputes only the corrupt one.
func TestResumeSkipsCompletedCircuits(t *testing.T) {
	dir := t.TempDir()
	cfg := smallCfg()
	cfg.Names = []string{"s9234", "s13207"}
	req := TableRequest{T1: true}

	if err := SaveCheckpoint(context.Background(), dir, fakeResult("s9234", cfg)); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(context.Background(), dir, fakeResult("s13207", cfg)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the second entry after the fact (simulating a crash that
	// tore the file some other way, e.g. disk truncation).
	if err := os.WriteFile(checkpointPath(dir, "s13207"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	computed := map[string]bool{}
	cachedSeen := map[string]bool{}
	results, err := RunSuiteCheckpointed(context.Background(), cfg, req, dir, nil,
		func(ev SuiteEvent) {
			if ev.Res == nil {
				return // start event
			}
			if ev.Cached {
				cachedSeen[ev.Res.Name] = true
			} else {
				computed[ev.Res.Name] = true
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if !cachedSeen["s9234"] || computed["s9234"] {
		t.Fatal("completed circuit s9234 was recomputed")
	}
	if !computed["s13207"] || cachedSeen["s13207"] {
		t.Fatal("corrupt circuit s13207 was not recomputed")
	}
	// The fake cached row (Gates=123) must have been served verbatim; the
	// recomputed one carries real data and was re-persisted.
	if results[0].T1.Gates != 123 {
		t.Fatal("cached entry not served verbatim")
	}
	if results[1].T1 == nil || results[1].T1.Gates == 123 {
		t.Fatalf("recomputed entry bogus: %+v", results[1].T1)
	}
	entries, _, err := LoadCheckpoints(context.Background(), dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if entries["s13207"] == nil || entries["s13207"].T1 == nil {
		t.Fatal("recomputed circuit not re-persisted")
	}
}

// TestResumeRecomputesOnBroaderRequest: a cached entry lacking a requested
// artifact must not satisfy the request.
func TestResumeRecomputesOnBroaderRequest(t *testing.T) {
	res := fakeResult("s9234", smallCfg())
	if !res.Satisfies(TableRequest{T1: true}) {
		t.Fatal("T1-only request must be satisfied")
	}
	if res.Satisfies(TableRequest{T1: true, T2: true}) {
		t.Fatal("entry without T2 satisfied a T2 request")
	}
	if res.Satisfies(TableRequest{Fig3Steps: 5}) {
		t.Fatal("entry without Fig3 satisfied a Fig3 request")
	}
}

func TestSuiteStopFinishesGracefully(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	results, err := RunSuiteCheckpointed(context.Background(), smallCfg(),
		TableRequest{T1: true}, "", stop, nil)
	if err == nil {
		t.Fatal("stopped run returned nil error")
	}
	if fmerr.StageOf(err) != fmerr.StageExper {
		t.Fatalf("stage = %q", fmerr.StageOf(err))
	}
	if !strings.Contains(err.Error(), "partial") {
		t.Fatalf("error does not mark results partial: %v", err)
	}
	if len(results) != 0 {
		t.Fatalf("stop before first circuit still produced %d results", len(results))
	}
}

func TestSuiteCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSuiteCheckpointed(ctx, smallCfg(), TableRequest{T1: true}, "", nil, nil)
	if !fmerr.IsCanceled(err) {
		t.Fatalf("cancelled suite: %v", err)
	}
}

// TestTableIIIDegradationLabel checks that a circuit whose Table III
// solves were all cut off by the solver budget is labelled incumbent, not
// exact: ComputeCircuit must fold the Table III builds' degradation into
// CircuitResult.Degradation as it does for Table II.
func TestTableIIIDegradationLabel(t *testing.T) {
	cfg := smallCfg()
	cfg.SolverBudget = time.Nanosecond
	specs, err := cfg.Select()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ComputeCircuit(context.Background(), specs[0], cfg, TableRequest{T3: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmerr.DegradeIncumbent.String(); res.Degradation != want {
		t.Fatalf("Degradation = %q after 1 ns solver budgets, want %q", res.Degradation, want)
	}
}
