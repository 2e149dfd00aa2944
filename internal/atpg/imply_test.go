package atpg

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fastmon/internal/circuit"
	"fastmon/internal/fault"
)

// coneScan is the oracle for incremental implication: the cone-scan
// implySrc that preceded the event worklist, kept verbatim apart from
// owning its dirty set. On every source change it walks the whole
// topological fanout cone of the source and re-evaluates each gate with a
// fanin marked dirty in this pass.
type coneScan struct {
	// dirtyVer/curVer implement an O(1)-clear dirty set:
	// dirtyVer[id] == curVer marks a changed net.
	dirtyVer []int
	curVer   int
}

func (o *coneScan) implySrc(m *machine, srcIdx int) {
	srcGate := m.srcs[srcIdx]
	nv := m.assign[srcIdx]
	if m.good[srcGate] == nv && m.bad[srcGate] == nv {
		return
	}
	o.curVer++
	m.good[srcGate] = nv
	m.bad[srcGate] = nv
	o.dirtyVer[srcGate] = o.curVer
	for _, id := range m.c.FanoutCone(srcGate) {
		touched := false
		for _, f := range m.c.Gates[id].Fanin {
			if o.dirtyVer[f] == o.curVer {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		og, ob := m.good[id], m.bad[id]
		m.evalAt(id)
		if m.good[id] != og || m.bad[id] != ob {
			o.dirtyVer[id] = o.curVer
		}
	}
}

// scanFrontier is the oracle for dFrontier: the site-cone scan that
// preceded the effect walk, kept verbatim apart from returning a fresh
// slice ordered by sort.SliceStable on the same depth key.
func scanFrontier(m *machine) []int {
	var out []int
	for _, id := range m.c.FanoutCone(m.siteNet()) {
		g := &m.c.Gates[id]
		if m.good[id] != vX && m.bad[id] != vX {
			continue
		}
		if id == m.flt.Gate && m.flt.Pin >= 0 && m.activated() {
			out = append(out, id)
			continue
		}
		for _, f := range g.Fanin {
			if m.effect(f) {
				out = append(out, id)
				break
			}
		}
	}
	depth := func(id int) int {
		if d := m.obsDepth[id]; d >= 0 {
			return d
		}
		return 1 << 30
	}
	sort.SliceStable(out, func(i, j int) bool { return depth(out[i]) < depth(out[j]) })
	return out
}

// CheckImplyMatchesConeScan drives random PODEM-style decision sequences
// (assign, flip, unassign by trail undo) on machines targeting a sample of c's faults —
// output and pin faults, plus justification-style faults on source nets —
// and after every step requires the worklist implySrc, the cone-scan
// oracle and a full imply to agree on every good and faulty value, and the
// effect-walk D-frontier to equal the cone-scan one.
// Exported for the suite-level test in package atpg_test.
func CheckImplyMatchesConeScan(t *testing.T, c *circuit.Circuit, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	an := newAnalysis(c)
	universe := fault.Universe(c)
	var targets []fault.Fault
	for i := 0; i < 6 && len(universe) > 0; i++ {
		targets = append(targets, universe[rng.Intn(len(universe))])
	}
	for i := 0; i < 2; i++ {
		src := an.srcs[rng.Intn(len(an.srcs))]
		targets = append(targets, fault.Fault{Gate: src, Pin: -1, Rising: rng.Intn(2) == 0})
	}
	if len(c.DFFs) > 0 {
		ff := c.DFFs[rng.Intn(len(c.DFFs))]
		targets = append(targets, fault.Fault{Gate: ff, Pin: -1, Rising: rng.Intn(2) == 0})
	}
	for _, f := range targets {
		stuck := v0
		if !f.Rising {
			stuck = v1
		}
		checkImplyFault(t, an, f, stuck, rng)
	}
}

func checkImplyFault(t *testing.T, an *analysis, f fault.Fault, stuck value, rng *rand.Rand) {
	t.Helper()
	wm := machineFor(an, f, stuck)
	om := machineFor(an, f, stuck)
	full := machineFor(an, f, stuck)
	oracle := &coneScan{dirtyVer: make([]int, len(an.c.Gates))}
	wm.imply()
	om.imply()

	step := 0
	check := func() {
		step++
		copy(full.assign, wm.assign)
		full.imply()
		for id := range an.c.Gates {
			if wm.good[id] != om.good[id] || wm.bad[id] != om.bad[id] {
				t.Fatalf("%s fault %+v step %d: gate %d worklist %v/%v, cone scan %v/%v",
					an.c.Name, f, step, id, wm.good[id], wm.bad[id], om.good[id], om.bad[id])
			}
			if wm.good[id] != full.good[id] || wm.bad[id] != full.bad[id] {
				t.Fatalf("%s fault %+v step %d: gate %d worklist %v/%v, full imply %v/%v",
					an.c.Name, f, step, id, wm.good[id], wm.bad[id], full.good[id], full.bad[id])
			}
		}
		if got, want := wm.dFrontier(), scanFrontier(wm); !slices.Equal(got, want) {
			t.Fatalf("%s fault %+v step %d: D-frontier %v, cone scan %v", an.c.Name, f, step, got, want)
		}
	}
	set := func(src int, v value) {
		wm.assign[src], om.assign[src] = v, v
		wm.implySrc(src)
		oracle.implySrc(om, src)
		check()
	}
	// unassign pops a decision as run/justify do: the worklist machine
	// rewinds its trail, the oracle re-implies.
	unassign := func(d decision) {
		wm.assign[d.src], om.assign[d.src] = vX, vX
		wm.undo(d.mark)
		oracle.implySrc(om, d.src)
		check()
	}

	var stack []decision
	for i := 0; i < 120; i++ {
		if r := rng.Intn(10); r < 6 || len(stack) == 0 {
			// Decide on an unassigned source, as an objective backtrace does.
			src := rng.Intn(len(an.srcs))
			if wm.assign[src] != vX {
				continue
			}
			v := fromBool(rng.Intn(2) == 0)
			stack = append(stack, decision{src: src, val: v, mark: len(wm.trail)})
			set(src, v)
			continue
		}
		// Backtrack as run/justify do: unassign flipped decisions, then flip
		// the most recent unflipped one.
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if !top.flipped {
				top.flipped = true
				top.val = top.val.not()
				set(top.src, top.val)
				break
			}
			unassign(*top)
			stack = stack[:len(stack)-1]
		}
	}
}
