package detect

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"fastmon/internal/atpg"
	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/fault"
	"fastmon/internal/fmerr"
	"fastmon/internal/interval"
	"fastmon/internal/monitor"
	"fastmon/internal/par"
	"fastmon/internal/sim"
	"fastmon/internal/sta"
	"fastmon/internal/tunit"
)

// testbed builds a fully wired s27 environment.
func testbed(t *testing.T) (*sim.Engine, *monitor.Placement, Config, []fault.Fault, []sim.Pattern) {
	t.Helper()
	c := circuit.MustParseBench("s27", circuit.S27)
	lib := cell.NanGate45()
	a := cell.Annotate(c, lib)
	r := sta.Analyze(c, a)
	clk := r.NominalClock(0.05)
	placement := monitor.Place(r, 1.0, monitor.StandardDelays(clk)) // monitor all FFs
	e := sim.NewEngine(c, a)
	faults := fault.Universe(c)
	pats, _, err := atpg.Generate(context.Background(), c, faults, atpg.DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Clk:    clk,
		TMin:   clk / 3,
		Delta:  lib.FaultSize(),
		Glitch: lib.MinPulse(),
	}
	return e, placement, cfg, faults, pats
}

func TestRunBasicInvariants(t *testing.T) {
	e, placement, cfg, faults, pats := testbed(t)
	data, err := Run(context.Background(), e, placement, faults, pats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(faults) {
		t.Fatalf("data for %d of %d faults", len(data), len(faults))
	}
	anyDetected := 0
	for fi := range data {
		fd := &data[fi]
		if fd.Fault != faults[fi] {
			t.Fatal("fault order changed")
		}
		prev := -1
		for _, pr := range fd.Per {
			if pr.Pattern <= prev {
				t.Fatal("pattern indices not ascending")
			}
			prev = pr.Pattern
			if pr.FF.Empty() && pr.SR.Empty() {
				t.Fatal("stored pattern with empty ranges")
			}
			// SR observes a subset of taps: SR ⊆ FF as sets of intervals
			// is not guaranteed interval-wise, but every SR point must be
			// an FF point (monitored taps are also normal FFs).
			if !pr.SR.Subtract(pr.FF).Empty() {
				t.Fatalf("SR range outside FF range: %v vs %v", pr.SR, pr.FF)
			}
			for _, s := range []interval.Set{pr.FF, pr.SR} {
				if !s.Empty() && (s.Min() < 0 || s.Max() > cfg.Clk+1) {
					t.Fatalf("range outside [0, clk]: %v", s)
				}
				for _, iv := range s.Intervals() {
					// Glitch filtering applies per tap before the union,
					// so union'd intervals can only grow.
					if iv.Len() < cfg.Glitch {
						t.Fatalf("glitch survived filtering: %v", iv)
					}
				}
			}
		}
		if len(fd.Per) > 0 {
			anyDetected++
		}
	}
	if anyDetected == 0 {
		t.Fatal("no fault has any detection data")
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	e, placement, cfg, faults, pats := testbed(t)
	cfg1 := cfg
	cfg1.Workers = 1
	d1, err := Run(context.Background(), e, placement, faults, pats, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg8 := cfg
	cfg8.Workers = 8
	d8, err := Run(context.Background(), e, placement, faults, pats, cfg8)
	if err != nil {
		t.Fatal(err)
	}
	for fi := range d1 {
		if len(d1[fi].Per) != len(d8[fi].Per) {
			t.Fatalf("fault %d: %d vs %d pattern hits", fi, len(d1[fi].Per), len(d8[fi].Per))
		}
		for i := range d1[fi].Per {
			a, b := d1[fi].Per[i], d8[fi].Per[i]
			if a.Pattern != b.Pattern || !a.FF.Equal(b.FF) || !a.SR.Equal(b.SR) {
				t.Fatalf("fault %d pattern %d differs between worker counts", fi, a.Pattern)
			}
		}
	}
}

func TestCombinedShiftProperty(t *testing.T) {
	e, placement, cfg, faults, pats := testbed(t)
	data, err := Run(context.Background(), e, placement, faults, pats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := cfg.ObservationWindow()
	delays := placement.Delays
	for fi := range data {
		fd := &data[fi]
		if len(fd.Per) == 0 {
			continue
		}
		comb := fd.Combined(cfg, delays)
		// Exact identity: Combined = clip(FF) ∪ ⋃ clip(SR+d).
		want := fd.FFUnion().Clip(lo, hi)
		sr := fd.SRUnion()
		for _, d := range delays {
			want = want.Union(sr.Shift(d).Clip(lo, hi))
		}
		if !comb.Equal(want) {
			t.Fatalf("Combined identity broken for fault %d", fi)
		}
		// Monotonicity: more delays never shrink the range.
		small := fd.Combined(cfg, delays[:1])
		if !small.Subtract(comb).Empty() {
			t.Fatalf("adding configs shrank the range for fault %d", fi)
		}
		// No monitors at all: combined reduces to the FF part.
		ffOnly := fd.Combined(cfg, nil)
		if !ffOnly.Equal(fd.FFUnion().Clip(lo, hi)) {
			t.Fatalf("nil delays wrong for fault %d", fi)
		}
	}
}

func TestCombinedAt(t *testing.T) {
	e, placement, cfg, faults, pats := testbed(t)
	data, err := Run(context.Background(), e, placement, faults, pats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := cfg.ObservationWindow()
	for fi := range data {
		for _, pr := range data[fi].Per {
			ffOnly := pr.CombinedAt(cfg, -1)
			if !ffOnly.Equal(pr.FF.Clip(lo, hi)) {
				t.Fatal("CombinedAt(-1) must be the clipped FF range")
			}
			d := placement.Delays[2]
			withMon := pr.CombinedAt(cfg, d)
			want := pr.FF.Clip(lo, hi).Union(pr.SR.Shift(d).Clip(lo, hi))
			if !withMon.Equal(want) {
				t.Fatal("CombinedAt(d) identity broken")
			}
		}
	}
}

func TestMonitorShiftEnablesDetection(t *testing.T) {
	// A short chain observed only by a monitored FF: the fault effect sits
	// below TMin and becomes detectable only through the monitor delay.
	c := circuit.New("shortpath")
	pi := c.AddGate("pi", circuit.Input)
	b1 := c.AddGate("b1", circuit.Buf, pi)
	c.AddGate("ff0", circuit.DFF, b1)
	// A long dummy chain to stretch the nominal clock.
	prev := pi
	for i := 0; i < 20; i++ {
		prev = c.AddGate("inv"+string(rune('a'+i)), circuit.Not, prev)
	}
	c.AddGate("ff1", circuit.DFF, prev)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	lib := cell.NanGate45()
	a := cell.Annotate(c, lib)
	r := sta.Analyze(c, a)
	clk := r.NominalClock(0.05)
	placement := monitor.Place(r, 1.0, monitor.StandardDelays(clk))
	e := sim.NewEngine(c, a)
	cfg := Config{Clk: clk, TMin: clk / 3, Delta: lib.FaultSize(), Glitch: lib.MinPulse()}

	fl := []fault.Fault{{Gate: b1, Pin: -1, Rising: true}}
	pats := []sim.Pattern{{V1: []bool{false, false, false}, V2: []bool{true, false, false}}}
	data, err := Run(context.Background(), e, placement, fl, pats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data[0].Per) == 0 {
		t.Fatal("fault not simulated as detectable at all")
	}
	lo, hi := cfg.ObservationWindow()
	ffOnly := data[0].FFUnion().Clip(lo, hi)
	if !ffOnly.Empty() {
		t.Fatalf("fault unexpectedly FF-detectable in window: %v", ffOnly)
	}
	comb := data[0].Combined(cfg, placement.Delays)
	if comb.Empty() {
		t.Fatal("monitor shift failed to move the fault into the window")
	}
}

func TestRunNoMonitors(t *testing.T) {
	e, _, cfg, faults, pats := testbed(t)
	data, err := Run(context.Background(), e, nil, faults, pats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for fi := range data {
		for _, pr := range data[fi].Per {
			if !pr.SR.Empty() {
				t.Fatal("SR range without monitors")
			}
		}
	}
}

// TestWorkerPanicIsolated proves the chaos hook: a worker panicking on one
// specific fault yields a typed error naming that fault instead of
// crashing the process — on the inline single-worker path as well as in
// the goroutine pool.
func TestWorkerPanicIsolated(t *testing.T) {
	e, placement, cfg, faults, pats := testbed(t)
	victim := faults[len(faults)/2]
	testHookPanic = func(f fault.Fault, pattern int) {
		if f == victim {
			panic("chaos: injected worker failure")
		}
	}
	defer func() { testHookPanic = nil }()

	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		data, err := Run(context.Background(), e, placement, faults, pats, cfg)
		if err == nil {
			t.Fatalf("Workers=%d: panicking worker did not fail the run", workers)
		}
		if data != nil {
			t.Fatalf("Workers=%d: partial data returned alongside error", workers)
		}
		var pe *fmerr.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("Workers=%d: error is not a PanicError: %v", workers, err)
		}
		if pe.Stage != fmerr.StageDetect {
			t.Fatalf("Workers=%d: stage = %q", workers, pe.Stage)
		}
		want := victim.Injection(cfg.Delta).String()
		if !strings.Contains(pe.Item, want) || !strings.Contains(pe.Item, "under pattern") {
			t.Fatalf("Workers=%d: item %q does not name the offending fault %q and its pattern", workers, pe.Item, want)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("Workers=%d: panic stack not captured", workers)
		}
	}
}

// TestRunCanceled proves prompt cancellation: a pre-cancelled context
// returns a stage-attributed context error without simulating anything.
func TestRunCanceled(t *testing.T) {
	e, placement, cfg, faults, pats := testbed(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Run(ctx, e, placement, faults, pats, cfg)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if !fmerr.IsCanceled(err) {
		t.Fatalf("IsCanceled false for %v", err)
	}
	if fmerr.StageOf(err) == "" {
		t.Fatalf("no stage attribution: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled run took %v", d)
	}
}

func TestObservationWindow(t *testing.T) {
	cfg := Config{Clk: 900, TMin: 300}
	lo, hi := cfg.ObservationWindow()
	if lo != 300 || hi != 901 {
		t.Fatalf("window = %d..%d", lo, hi)
	}
	if tunit.Time(0) != 0 {
		t.Fatal()
	}
}

// TestWorkersClamped pins the Workers config to [1, GOMAXPROCS]: absurd
// values must neither deadlock nor change the result.
func TestWorkersClamped(t *testing.T) {
	maxp := runtime.GOMAXPROCS(0)
	cases := map[int]int{
		-7:       maxp,
		0:        maxp,
		1:        1,
		maxp:     maxp,
		maxp + 9: maxp,
		1 << 20:  maxp,
	}
	for in, want := range cases {
		if got := par.ClampWorkers(in); got != want {
			t.Errorf("par.ClampWorkers(%d) = %d, want %d", in, got, want)
		}
	}

	e, placement, cfg, faults, pats := testbed(t)
	ref, err := Run(context.Background(), e, placement, faults, pats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{-7, 1 << 20} {
		cfg := cfg
		cfg.Workers = w
		done := make(chan struct{})
		var data []FaultData
		go func() {
			defer close(done)
			data, err = Run(context.Background(), e, placement, faults, pats, cfg)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("Workers=%d: run did not finish (deadlock?)", w)
		}
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if len(data) != len(ref) {
			t.Fatalf("Workers=%d changed the result size", w)
		}
		for i := range data {
			if len(data[i].Per) != len(ref[i].Per) {
				t.Fatalf("Workers=%d changed fault %d detections", w, i)
			}
		}
	}
}

// TestCombinedIntoMatchesAllocating locks the in-place range kernel used
// by the schedule memo to the allocating reference identities.
func TestCombinedIntoMatchesAllocating(t *testing.T) {
	e, placement, cfg, faults, pats := testbed(t)
	data, err := Run(context.Background(), e, placement, faults, pats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var acc interval.Accum
	scratch := interval.GetScratch()
	defer interval.PutScratch(scratch)
	for fi := range data {
		for _, pr := range data[fi].Per {
			for _, d := range append([]tunit.Time{-1}, placement.Delays...) {
				pr.CombinedAtInto(cfg, d, &acc, scratch)
				if want := pr.CombinedAt(cfg, d); !acc.Result().Equal(want) {
					t.Fatalf("CombinedAtInto(%v) = %v, want %v", d, acc.Result(), want)
				}
			}
			pr.CombinedFreeInto(cfg, placement.Delays, &acc, scratch)
			if want := pr.CombinedFree(cfg, placement.Delays); !acc.Result().Equal(want) {
				t.Fatalf("CombinedFreeInto = %v, want %v", acc.Result(), want)
			}
		}
	}
}
