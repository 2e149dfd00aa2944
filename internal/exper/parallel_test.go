package exper

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"fastmon/internal/schedule"
)

// withProcs raises GOMAXPROCS so worker clamping does not collapse the
// parallel paths to one goroutine on single-CPU test machines.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// tinySuiteCfg shrinks the full 12-circuit paper suite far enough that the
// differential replay stays in test-suite time.
func tinySuiteCfg() SuiteConfig {
	return SuiteConfig{Scale: 0.02, MaxFaults: 200}
}

func schedulesEqual(a, b *schedule.Schedule) bool {
	if a.Method != b.Method || a.Covered != b.Covered || a.Coverable != b.Coverable ||
		a.FreqOptimal != b.FreqOptimal || a.CombosOptimal != b.CombosOptimal ||
		len(a.Periods) != len(b.Periods) {
		return false
	}
	for i := range a.Periods {
		pa, pb := a.Periods[i], b.Periods[i]
		if pa.Period != pb.Period || !reflect.DeepEqual(pa.Faults, pb.Faults) ||
			!reflect.DeepEqual(pa.Combos, pb.Combos) {
			return false
		}
	}
	return true
}

// TestSuiteSchedulesParallelMatchSerial replays every circuit of the
// paper suite through the schedule stage the way the suite fan-out runs
// it: ILP schedules are built one at a time, then the same builds run
// from four goroutines at once, and every concurrent schedule must be
// bit-identical to its serial one.
func TestSuiteSchedulesParallelMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential replay")
	}
	withProcs(t, 4)
	cfg := tinySuiteCfg()
	specs, err := cfg.Select()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	covs := []float64{1.0, 0.9}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			r, err := RunCircuit(ctx, spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			build := func(cov float64) (*schedule.Schedule, error) {
				opt := r.Flow.ScheduleOptions(schedule.ILP, cov)
				// A budget expiry degrades to whichever incumbent the clock
				// reached; give the tiny instances effectively unlimited
				// time so every solve completes.
				opt.SolverBudget = 5 * time.Minute
				return schedule.Build(ctx, r.Flow.TargetData, opt)
			}
			serial := make([]*schedule.Schedule, len(covs))
			for i, cov := range covs {
				if serial[i], err = build(cov); err != nil {
					t.Fatalf("cov=%.2f serial: %v", cov, err)
				}
				if !serial[i].FreqOptimal {
					t.Fatalf("cov=%.2f: serial solve degraded despite test budget", cov)
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := range covs {
						i := (k + g) % len(covs)
						got, err := build(covs[i])
						if err != nil {
							t.Errorf("cov=%.2f goroutine %d: %v", covs[i], g, err)
							return
						}
						if !schedulesEqual(serial[i], got) {
							t.Errorf("cov=%.2f goroutine %d: schedule diverged from serial\nserial: %+v\nconcurrent: %+v",
								covs[i], g, serial[i], got)
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// stripNondeterministic clears the fields of a CircuitResult that are
// expected to differ between runs (wall-clock timings, solver effort
// counters); everything else must replay identically.
func stripNondeterministic(res []*CircuitResult) []*CircuitResult {
	out := make([]*CircuitResult, len(res))
	for i, r := range res {
		c := *r
		c.Elapsed = 0
		c.Stages = nil
		c.Solver = nil
		out[i] = &c
	}
	return out
}

// TestSuiteParallelMatchesSerial runs the checkpointed suite loop itself
// serially and with concurrent circuits; the ordered results (tables, Fig.
// 3 points, degradation rungs) must be identical and progress events must
// cover every circuit exactly once.
func TestSuiteParallelMatchesSerial(t *testing.T) {
	withProcs(t, 8)
	cfg := smallCfg()
	cfg.Names = []string{"s9234", "s13207", "s15850"}
	cfg.Scale = 0.03
	cfg.MaxFaults = 300
	req := TableRequest{T1: true, T3: true}
	ctx := context.Background()

	cfg.Workers = 1
	serial, err := RunSuiteCheckpointed(ctx, cfg, req, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Workers = 8
	var (
		mu        sync.Mutex
		completed []string
	)
	parallel, err := RunSuiteCheckpointed(ctx, cfg, req, "", nil, func(ev SuiteEvent) {
		if ev.Res == nil {
			return
		}
		mu.Lock()
		completed = append(completed, fmt.Sprintf("%d:%s", ev.Index, ev.Spec.Name))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(cfg.Names) || len(completed) != len(cfg.Names) {
		t.Fatalf("parallel run: %d results, %d completion events, want %d",
			len(parallel), len(completed), len(cfg.Names))
	}
	for i, want := range cfg.Names {
		if parallel[i].Name != want {
			t.Fatalf("result %d = %s, want spec order %s", i, parallel[i].Name, want)
		}
	}
	if !reflect.DeepEqual(stripNondeterministic(serial), stripNondeterministic(parallel)) {
		t.Fatalf("parallel suite diverged from serial:\nserial: %+v\nparallel: %+v", serial, parallel)
	}
}
