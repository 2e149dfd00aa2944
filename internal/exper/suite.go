// Package exper regenerates the paper's evaluation: the circuit suite of
// Table I, the coverage sweep of Fig. 3, and the scheduling comparisons of
// Tables II and III.
//
// The original netlists (ISCAS'89 synthesized with NanGate 45nm, plus
// industrial p-circuits) are not redistributable; each suite entry is a
// synthetic full-scan netlist generated deterministically with the
// per-circuit gate/FF/pattern statistics of Table I (see DESIGN.md for the
// substitution argument). A scale factor shrinks the suite for laptop
// runs; fault sampling bounds simulation effort the same way the paper's
// GPU farm bounded wall-clock time.
package exper

import (
	"fmt"
	"math"
	"strings"
	"time"

	"fastmon/internal/circuit"
)

// Spec describes one suite circuit with the paper's full-scale statistics.
type Spec struct {
	Name     string
	Gates    int // Table I column 2
	FFs      int // Table I column 3
	Patterns int // Table I column 4 (|P| of the commercial ATPG set)
	Seed     int64
	// Bench, when non-empty, is a literal .bench netlist: Build parses it
	// instead of generating a synthetic circuit, and Scale is ignored.
	// Used for the tiny ISCAS reference circuits (s27) in smoke runs.
	Bench string
}

// PaperSuite lists the twelve evaluation circuits with their Table I
// statistics.
var PaperSuite = []Spec{
	{Name: "s9234", Gates: 1766, FFs: 228, Patterns: 155, Seed: 9234},
	{Name: "s13207", Gates: 2867, FFs: 669, Patterns: 195, Seed: 13207},
	{Name: "s15850", Gates: 3324, FFs: 597, Patterns: 134, Seed: 15850},
	{Name: "s35932", Gates: 11168, FFs: 1728, Patterns: 39, Seed: 35932},
	{Name: "s38417", Gates: 9796, FFs: 1636, Patterns: 128, Seed: 38417},
	{Name: "s38584", Gates: 12213, FFs: 1450, Patterns: 160, Seed: 38584},
	{Name: "p35k", Gates: 23294, FFs: 2173, Patterns: 1518, Seed: 35},
	{Name: "p45k", Gates: 25406, FFs: 2331, Patterns: 2719, Seed: 45},
	{Name: "p78k", Gates: 70495, FFs: 2977, Patterns: 70, Seed: 78},
	{Name: "p89k", Gates: 58726, FFs: 4301, Patterns: 993, Seed: 89},
	{Name: "p100k", Gates: 60767, FFs: 5735, Patterns: 2631, Seed: 100},
	{Name: "p141k", Gates: 107655, FFs: 10501, Patterns: 824, Seed: 141},
}

// ExtraSuite lists circuits selectable by name but not part of the paper
// suite: the tiny ISCAS'89 reference netlists, embedded verbatim, for
// smoke tests and cache warm-up checks that need a fixed real circuit.
var ExtraSuite = []Spec{
	{Name: "s27", Gates: 10, FFs: 3, Patterns: 32, Seed: 27, Bench: circuit.S27},
	{Name: "c17", Gates: 6, FFs: 0, Patterns: 32, Seed: 17, Bench: circuit.C17},
}

// SpecByName returns the suite entry with the given name, consulting the
// paper suite first and the extra reference circuits second.
func SpecByName(name string) (Spec, bool) {
	for _, s := range PaperSuite {
		if s.Name == name {
			return s, true
		}
	}
	for _, s := range ExtraSuite {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// GenSpec derives the generator parameters for the spec at a scale factor
// in (0, 1]. Gate and FF counts scale linearly (with floors), I/O counts
// and depth follow the usual sub-linear growth of synthesized designs.
func (s Spec) GenSpec(scale float64) circuit.GenSpec {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	gates := int(float64(s.Gates)*scale + 0.5)
	if gates < 60 {
		gates = 60
	}
	ffs := int(float64(s.FFs)*scale + 0.5)
	if ffs < 8 {
		ffs = 8
	}
	inputs := ffs/8 + 8
	outputs := ffs/10 + 6
	depth := int(8 + 3.2*math.Log2(float64(gates)))
	return circuit.GenSpec{
		Name:    s.Name,
		Gates:   gates,
		FFs:     ffs,
		Inputs:  inputs,
		Outputs: outputs,
		Depth:   depth,
		Seed:    s.Seed,
	}
}

// Build generates the scaled netlist for the spec, or parses the embedded
// netlist for literal specs (Bench non-empty).
func (s Spec) Build(scale float64) (*circuit.Circuit, error) {
	if s.Bench != "" {
		return circuit.ParseBench(s.Name, strings.NewReader(s.Bench))
	}
	return circuit.Generate(s.GenSpec(scale))
}

// SuiteConfig controls a harness run.
type SuiteConfig struct {
	// Scale shrinks every circuit (1.0 = the paper's sizes). The default
	// 0.08 keeps the whole suite within minutes on a laptop.
	Scale float64
	// MaxFaults bounds the sampled fault universe per circuit (0 = use
	// the default of 2500; negative = unlimited).
	MaxFaults int
	// SolverBudget bounds each exact covering solve (default 5s).
	SolverBudget time.Duration
	// Workers bounds every parallel stage of the run — concurrent suite
	// circuits and fault-simulation goroutines (0 = GOMAXPROCS).
	// Concurrent circuits are the only parallelism of ATPG and of the
	// schedule stage: each ATPG run, schedule build and covering solve is
	// single-threaded.
	Workers int
	// SlowSim forces the naive fault-simulation reference engine
	// (differential debugging escape hatch; see detect.Config.SlowSim).
	SlowSim bool
	// Names restricts the suite (empty = all twelve circuits).
	Names []string
}

// Defaults fills unset fields.
func (c SuiteConfig) Defaults() SuiteConfig {
	if c.Scale == 0 {
		c.Scale = 0.08
	}
	if c.MaxFaults == 0 {
		c.MaxFaults = 2500
	}
	if c.SolverBudget == 0 {
		c.SolverBudget = 5 * time.Second
	}
	return c
}

// Select resolves the configured subset of the suite.
func (c SuiteConfig) Select() ([]Spec, error) {
	if len(c.Names) == 0 {
		return PaperSuite, nil
	}
	var out []Spec
	for _, n := range c.Names {
		s, ok := SpecByName(n)
		if !ok {
			return nil, fmt.Errorf("exper: unknown circuit %q", n)
		}
		out = append(out, s)
	}
	return out, nil
}
