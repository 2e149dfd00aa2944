package main

import (
	"fmt"
	"strings"

	"fastmon/internal/schedule"
)

// tally accumulates the checked outcomes of every pass of a run. An
// operation is one circuit flow or one schedule build.
type tally struct {
	passes    int
	attempted int
	// failed counts operations that returned an error or whose output is
	// wrong: an invalid schedule, or Table I with prop < conv.
	failed int
	// rejected counts operations that failed any check: the failed ones
	// plus quality checks, namely an ILP schedule with more frequencies
	// than the heuristic, |F| rising as the coverage target falls, and
	// on a must-prove workload an ILP schedule not proven optimal.
	rejected int
	problems []string

	ilpBuilt, ilpProven int
	// Σ|F| and Σ|S| over ILP schedules, and the same sums of the
	// heuristic schedule of each circuit, once per ILP schedule.
	ilpFreqs, heurFreqs   int
	ilpCombos, heurCombos int
	patterns, hdfProp     int
	// signatures holds, per circuit, the outputs that must not change
	// between passes of one run; diverged counts passes that changed them.
	signatures map[string]string
	diverged   int
}

func (t *tally) note(format string, args ...any) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// check validates one pass and adds it to the tally. validate is called
// once per schedule so the traced pass can time it.
func (t *tally) check(outs []circuitOut, w workload, validate func(b built) error) {
	t.passes++
	for _, o := range outs {
		t.attempted++
		if o.err != nil {
			t.failed++
			t.rejected++
			t.note("%s: %v", o.label, o.err)
			continue
		}
		if o.t1.Prop < o.t1.Conv {
			t.failed++
			t.rejected++
			t.note("%s: Table I prop %d < conv %d", o.label, o.t1.Prop, o.t1.Conv)
		}
		t.patterns += o.t1.P
		t.hdfProp += o.t1.Prop
		t.checkSchedules(o, w, validate)
		t.compare(o.label, signature(o))
	}
}

func (t *tally) checkSchedules(o circuitOut, w workload, validate func(b built) error) {
	var heur *schedule.Schedule
	prevF := -1 // |F| of the previous ILP schedule, at a higher coverage target
	for _, b := range o.scheds {
		t.attempted++
		what := fmt.Sprintf("%s %v@%.2f", o.label, b.method, b.cov)
		if b.err != nil {
			t.failed++
			t.rejected++
			t.note("%s: %v", what, b.err)
			continue
		}
		if err := validate(b); err != nil {
			t.failed++
			t.rejected++
			t.note("%s: %v", what, err)
			continue
		}
		f := b.s.NumFrequencies()
		switch b.method {
		case schedule.Heuristic:
			heur = b.s
			continue
		case schedule.Conventional:
			continue
		}
		t.ilpBuilt++
		proven := b.ilpProven()
		if proven {
			t.ilpProven++
		}
		if heur != nil {
			t.ilpFreqs += f
			t.heurFreqs += heur.NumFrequencies()
			t.ilpCombos += b.s.Size()
			t.heurCombos += heur.Size()
		}
		switch {
		case b.cov == 1 && heur != nil && f > heur.NumFrequencies():
			t.rejected++
			t.note("%s: ILP |F| %d > heuristic |F| %d", what, f, heur.NumFrequencies())
		case prevF >= 0 && f > prevF:
			t.rejected++
			t.note("%s: |F| %d rises above %d at a lower coverage target", what, f, prevF)
		case w.mustProve && !proven:
			t.rejected++
			t.note("%s: not proven optimal within %v (gap %.3f)", what, w.budget, b.s.Solver.MaxGap)
		}
		prevF = f
	}
}

// signature renders the outputs of a circuit that are a pure function of
// its inputs, keyed by table part: Table I, the conventional and
// heuristic schedules, and the size of every ILP schedule proven
// optimal. An ILP schedule cut off by the clock budget may differ between
// passes and is left out.
func signature(o circuitOut) map[string]string {
	sig := map[string]string{"t1": fmt.Sprintf("%+v", o.t1)}
	for _, b := range o.scheds {
		if b.err != nil {
			continue
		}
		key := fmt.Sprintf("%v@%.2f", b.method, b.cov)
		switch {
		case b.method != schedule.ILP:
			var sb strings.Builder
			fmt.Fprintf(&sb, "%d/%d", b.s.Covered, b.s.Coverable)
			for _, p := range b.s.Periods {
				fmt.Fprintf(&sb, " %d:%v", p.Period, p.Combos)
			}
			sig[key] = sb.String()
		case b.ilpProven():
			sig[key] = fmt.Sprintf("%d/%d/%d", b.s.NumFrequencies(), b.s.Size(), b.s.Covered)
		}
	}
	return sig
}

// compare checks a circuit's signature against the earlier passes of the
// run, traced or not, part by part, and remembers parts not seen before.
func (t *tally) compare(label string, sig map[string]string) {
	if t.signatures == nil {
		t.signatures = map[string]string{}
	}
	for part, v := range sig {
		key := label + " " + part
		first, seen := t.signatures[key]
		switch {
		case !seen:
			t.signatures[key] = v
		case v != first:
			t.diverged++
			t.note("%s: output differs between passes", key)
		}
	}
}

// correct reports whether every output passed the checks that a correct
// program always passes.
func (t *tally) correct() bool { return t.failed == 0 && t.diverged == 0 }
