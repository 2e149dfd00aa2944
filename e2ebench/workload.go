package main

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"fastmon/internal/exper"
	"fastmon/internal/par"
)

// workload is one named, fixed set of inputs. Every workload is a closed
// loop from one process: the circuits of a pass fan out over the suite
// worker pool the way tablegen's do, and the next pass starts when the
// last circuit of the previous one is done.
type workload struct {
	name string
	// instances are the suite circuits of a pass, each with an offset
	// added to its generator seed (0 = the circuit tablegen builds).
	instances []instanceDef
	scale     float64
	maxFaults int
	budget    time.Duration
	// schedules asks for Tables II and III besides Table I.
	schedules bool
	// mustProve makes every ILP schedule that is not proven optimal
	// within the budget a failed check.
	mustProve bool
}

type instanceDef struct {
	circuit string
	offset  int64
}

var workloads = []workload{
	{
		name:      "flow-atpg",
		instances: []instanceDef{{"p78k", 0}, {"p141k", 0}},
		scale:     0.05,
		maxFaults: 900,
		budget:    5 * time.Second,
	},
	{
		// Offsets 0, 1000, …, 12000 of both circuits, except the three
		// whose partial covers do not prove within 10 s at the revision
		// that added this workload: they are clock-bound instances, the
		// kind tables-budget measures.
		name:      "schedule-exact",
		instances: append(series("s13207", 13, 7000), series("s15850", 13, 2000, 6000)...),
		scale:     0.03,
		maxFaults: 2500,
		budget:    30 * time.Second,
		schedules: true,
		mustProve: true,
	},
	{
		name:      "tables-budget",
		instances: []instanceDef{{"s15850", 0}, {"s38417", 0}},
		scale:     0.08,
		maxFaults: 2500,
		budget:    5 * time.Second,
		schedules: true,
	},
}

// series returns n instances of a circuit at generator offsets 0, 1000,
// 2000, … without the skipped offsets.
func series(circuit string, n int, skip ...int64) []instanceDef {
	var out []instanceDef
	for i := range int64(n) {
		if !slices.Contains(skip, i*1000) {
			out = append(out, instanceDef{circuit, i * 1000})
		}
	}
	return out
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) suiteConfig() exper.SuiteConfig {
	return exper.SuiteConfig{Scale: w.scale, MaxFaults: w.maxFaults, SolverBudget: w.budget}.Defaults()
}

// instance is one circuit of a pass.
type instance struct {
	label string
	spec  exper.Spec
}

// resolve looks up the suite entries of the workload's instances.
func (w workload) resolve() ([]instance, error) {
	var out []instance
	for _, d := range w.instances {
		spec, ok := exper.SpecByName(d.circuit)
		if !ok {
			return nil, fmt.Errorf("unknown circuit %q", d.circuit)
		}
		spec.Seed += d.offset
		label := d.circuit
		if d.offset != 0 {
			label = fmt.Sprintf("%s+%d", d.circuit, d.offset)
		}
		out = append(out, instance{label: label, spec: spec})
	}
	return out, nil
}

// runPass runs one operation per instance on the suite worker pool, with
// dispatch in instance order as in exper.RunSuiteCheckpointed, and
// returns the outcomes with the pass wall time.
func runPass(ctx context.Context, insts []instance, op func(context.Context, instance) circuitOut) ([]circuitOut, time.Duration) {
	outs := make([]circuitOut, len(insts))
	var next atomic.Int64
	start := time.Now()
	par.Run(par.ClampWorkersFor(0, len(insts)), func(int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(insts) {
				return
			}
			t0 := time.Now()
			outs[i] = op(ctx, insts[i])
			outs[i].elapsed = time.Since(t0)
		}
	})
	return outs, time.Since(start)
}
