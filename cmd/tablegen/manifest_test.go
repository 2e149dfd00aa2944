package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastmon/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden manifest shape")

// runWithManifest drives run() once with telemetry enabled and returns the
// parsed manifest.
func runWithManifest(t *testing.T, manifestPath string) *obs.Manifest {
	t.Helper()
	cfg := smallCfg()
	opts := options{t1: true, t2: true, t3: true, manifest: manifestPath}
	var out, log strings.Builder
	if err := run(context.Background(), &out, &log, cfg, opts, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "wrote manifest") {
		t.Fatalf("manifest write not reported: %q", log.String())
	}
	man, err := obs.ReadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// TestManifestTimingAndMetrics checks the manifest's semantic content: the
// per-stage leaf timings must account for the run's wall clock (within the
// 10% tolerance DESIGN.md promises), and the pipeline counters that every
// t1+t2+t3 run exercises must be present.
func TestManifestTimingAndMetrics(t *testing.T) {
	man := runWithManifest(t, filepath.Join(t.TempDir(), "run.json"))

	if man.Tool != "tablegen" {
		t.Fatalf("tool = %q", man.Tool)
	}
	if man.GoVersion == "" || man.ConfigFingerprint == "" {
		t.Fatalf("provenance incomplete: %+v", man)
	}
	if man.WallClock <= 0 {
		t.Fatalf("wall clock = %v", man.WallClock)
	}
	var stageSum int64
	for _, s := range man.Stages {
		stageSum += int64(s.Total)
	}
	if lo := int64(float64(man.WallClock) * 0.9); stageSum < lo {
		t.Fatalf("stage timings %v cover less than 90%% of wall clock %v (stages: %+v)",
			stageSum, man.WallClock, man.Stages)
	}
	if stageSum > int64(man.WallClock) {
		t.Fatalf("leaf stage timings %v exceed wall clock %v (double counting?)",
			stageSum, man.WallClock)
	}

	for _, c := range []string{
		"atpg.patterns", "atpg.backtracks", "atpg.gate_evals",
		"detect.sims", "detect.detections",
		"ilp.solves", "ilp.nodes",
		"schedule.builds", "schedule.frequencies", "schedule.combos",
	} {
		if _, ok := man.Metrics.Counters[c]; !ok {
			t.Errorf("counter %q missing from manifest", c)
		}
	}
	for _, g := range []string{"detect.sims_per_sec", "detect.worker_utilization"} {
		if _, ok := man.Metrics.Gauges[g]; !ok {
			t.Errorf("gauge %q missing from manifest", g)
		}
	}
}

// TestManifestGoldenShape locks the run.json schema against
// testdata/run_golden.json: the manifest is parsed, every volatile value
// (numbers, strings, booleans, metric-name maps, repeated array elements)
// is zeroed, and the remaining key structure must match the golden file.
// Regenerate with `go test ./cmd/tablegen -run Golden -update`.
func TestManifestGoldenShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	runWithManifest(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(normalizeShape(raw), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "run_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("manifest shape drifted from %s (regenerate with -update if intended)\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}

// volatileKeys are value maps (metric name -> value) and optional fields
// whose key sets depend on timing or machine load, not on the schema.
var volatileKeys = map[string]bool{
	"counters": true, "gauges": true, "histograms": true,
	"max_gap": true, // omitempty: present only after a budget abort
}

// normalizeShape reduces a parsed manifest to its schema: scalars are
// zeroed, arrays keep one normalized element, volatile maps are emptied.
func normalizeShape(v any) any {
	switch t := v.(type) {
	case map[string]any:
		out := map[string]any{}
		for k, val := range t {
			if volatileKeys[k] {
				switch val.(type) {
				case map[string]any:
					out[k] = map[string]any{}
				default:
					// Optional scalar: drop so presence doesn't flap.
				}
				continue
			}
			out[k] = normalizeShape(val)
		}
		return out
	case []any:
		if len(t) == 0 {
			return t
		}
		return []any{normalizeShape(t[0])}
	case string:
		return ""
	case float64:
		return 0.0
	case bool:
		return false
	default:
		return nil
	}
}
