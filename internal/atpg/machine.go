// Package atpg generates compacted transition-delay-fault test sets — the
// substitute for the commercial ATPG the paper uses ("compacted transition
// delay fault test sets with an average test coverage of over 99.9%").
//
// Tests are enhanced-scan pattern pairs (V1, V2): V1 justifies the
// pre-transition value at the fault site, V2 is a PODEM-generated
// stuck-at-style test that launches the transition and propagates the
// effect to an observation point. A 64-way parallel-pattern simulator
// (package logic) drives random-pattern generation, fault dropping and
// reverse-order static compaction.
package atpg

import (
	"fastmon/internal/circuit"
	"fastmon/internal/fault"
)

// value is the 3-valued logic domain of the test generator.
type value uint8

const (
	vX value = iota // unassigned / unknown
	v0
	v1
)

func (v value) String() string {
	switch v {
	case v0:
		return "0"
	case v1:
		return "1"
	}
	return "X"
}

// not inverts a defined value and keeps X.
func (v value) not() value {
	switch v {
	case v0:
		return v1
	case v1:
		return v0
	}
	return vX
}

func fromBool(b bool) value {
	if b {
		return v1
	}
	return v0
}

// eval3 evaluates a gate kind over the 3-valued values vals[f] of its
// fanin nets. A pin >= 0 reads pv in place of that pin's net: the forced
// value of a pin fault in the faulty machine.
func eval3(kind circuit.Kind, fanin []int, vals []value, pin int, pv value) value {
	in := func(i int) value {
		if i == pin {
			return pv
		}
		return vals[fanin[i]]
	}
	switch kind {
	case circuit.Buf:
		return in(0)
	case circuit.Not:
		return in(0).not()
	case circuit.And, circuit.Nand:
		out := v1
		for i := range fanin {
			v := in(i)
			if v == v0 {
				out = v0
				break
			}
			if v == vX {
				out = vX
			}
		}
		if kind == circuit.Nand {
			return out.not()
		}
		return out
	case circuit.Or, circuit.Nor:
		out := v0
		for i := range fanin {
			v := in(i)
			if v == v1 {
				out = v1
				break
			}
			if v == vX {
				out = vX
			}
		}
		if kind == circuit.Nor {
			return out.not()
		}
		return out
	case circuit.Xor, circuit.Xnor:
		out := v0
		for i := range fanin {
			v := in(i)
			if v == vX {
				return vX
			}
			if v == v1 {
				out = out.not()
			}
		}
		if kind == circuit.Xnor {
			return out.not()
		}
		return out
	}
	panic("atpg: eval3 on " + kind.String())
}

// controlling returns the controlling input value of the kind and whether
// one exists (XOR-family gates have none).
func controlling(kind circuit.Kind) (value, bool) {
	switch kind {
	case circuit.And, circuit.Nand:
		return v0, true
	case circuit.Or, circuit.Nor:
		return v1, true
	}
	return vX, false
}

// analysis holds the fault-independent guidance data shared by every
// PODEM machine of one circuit: SCOAP-like controllability costs,
// observability depths, and the tap/source index tables. Computing it
// once per circuit instead of once per fault dominates ATPG throughput on
// large designs.
type analysis struct {
	c        *circuit.Circuit
	taps     []circuit.Tap
	srcs     []int       // cached c.Sources() (per-call allocation otherwise)
	srcIdx   map[int]int // source gate ID -> source order index
	cc0, cc1 []int       // SCOAP-style controllability costs per net
	obsDepth []int       // min fanout hops to an observation point (-1: none)
	topoPos  []int       // gate ID -> position in c.Topo()
	tapGate  map[int]bool
}

// machine is the dual good/faulty 3-valued circuit state of one PODEM run.
// The faulty machine forces the fault site to its stuck value (the V1
// value of the site, which a gross transition delay holds through the
// capture edge).
type machine struct {
	*analysis
	flt   fault.Fault
	stuck value // forced value at the site in the faulty machine
	// backtracks counts decision flips of the last run/justification —
	// the ATPG effort metric surfaced through Stats.Backtracks.
	backtracks int
	// assign holds the current source decisions (indexed by source order).
	assign []value
	good   []value // per gate
	bad    []value // per gate (faulty machine)

	// siteTaps lists the tap-gate IDs inside the fanout cone of the fault
	// site net (or the site net itself when observed directly): the only
	// observation points a fault effect can reach.
	siteTaps []int

	// queue is the event worklist of incremental implication; evals
	// counts gate evaluations since the last reset (imply and implySrc).
	queue circuit.LevelQueue
	evals int64
	// trail records the prior values of every net implySrc changed since
	// the last full imply, so a backtrack that unassigns a decision
	// restores the state before it (undo) instead of re-implying.
	trail []trailEntry

	// Reusable per-decision scratch: the PODEM decision stack, the
	// D-frontier buffer, and the visited set and stack of the D-frontier
	// walk and the X-path check (seenVer[id] == seenCur marks visited).
	// All survive reset, so steady-state PODEM allocates nothing.
	stack    []decision
	frontier []int
	seenVer  []int
	seenCur  int
	xstack   []int
}

func newAnalysis(c *circuit.Circuit) *analysis {
	a := &analysis{
		c:       c,
		taps:    c.Taps(),
		srcs:    c.Sources(),
		srcIdx:  map[int]int{},
		tapGate: map[int]bool{},
	}
	for i, id := range a.srcs {
		a.srcIdx[id] = i
	}
	for _, tap := range a.taps {
		a.tapGate[tap.Gate] = true
	}
	a.topoPos = make([]int, len(c.Gates))
	for i, id := range c.Topo() {
		a.topoPos[id] = i
	}
	a.computeCosts()
	return a
}

// newMachine allocates a machine over the analysis. It must be aimed at
// a fault with reset before its first run.
func newMachine(an *analysis) *machine {
	n := len(an.c.Gates)
	vals := make([]value, 2*n) // good and bad share one block
	return &machine{
		analysis: an,
		assign:   make([]value, len(an.srcs)),
		good:     vals[:n:n],
		bad:      vals[n:],
		queue:    an.c.NewLevelQueue(),
		trail:    make([]trailEntry, 0, n),
		seenVer:  make([]int, n),
	}
}

// reset retargets a machine at a new fault. good/bad need no
// clearing (imply rewrites every gate before they are read), the worklist
// is always drained, and seenVer survives because its versions are
// monotone.
func (m *machine) reset(f fault.Fault, stuck value) {
	m.flt, m.stuck = f, stuck
	m.backtracks = 0
	m.evals = 0
	for i := range m.assign {
		m.assign[i] = vX
	}
	site := m.siteNet()
	m.siteTaps = m.siteTaps[:0]
	if m.tapGate[site] {
		m.siteTaps = append(m.siteTaps, site)
	}
	for _, id := range m.c.FanoutCone(site) {
		if m.tapGate[id] {
			m.siteTaps = append(m.siteTaps, id)
		}
	}
}

// computeCosts derives SCOAP-like controllability costs and the fanout
// distance to the nearest observation point. They guide backtrace input
// selection and D-frontier ordering.
func (m *analysis) computeCosts() {
	n := len(m.c.Gates)
	m.cc0 = make([]int, n)
	m.cc1 = make([]int, n)
	for _, id := range m.srcs {
		m.cc0[id], m.cc1[id] = 1, 1
	}
	for _, id := range m.c.Topo() {
		g := &m.c.Gates[id]
		switch g.Kind {
		case circuit.Buf:
			m.cc0[id] = m.cc0[g.Fanin[0]] + 1
			m.cc1[id] = m.cc1[g.Fanin[0]] + 1
		case circuit.Not:
			m.cc0[id] = m.cc1[g.Fanin[0]] + 1
			m.cc1[id] = m.cc0[g.Fanin[0]] + 1
		case circuit.And, circuit.Nand:
			sum1, min0 := 1, int(1e9)
			for _, f := range g.Fanin {
				sum1 += m.cc1[f]
				if m.cc0[f] < min0 {
					min0 = m.cc0[f]
				}
			}
			if g.Kind == circuit.And {
				m.cc1[id], m.cc0[id] = sum1, min0+1
			} else {
				m.cc0[id], m.cc1[id] = sum1, min0+1
			}
		case circuit.Or, circuit.Nor:
			sum0, min1 := 1, int(1e9)
			for _, f := range g.Fanin {
				sum0 += m.cc0[f]
				if m.cc1[f] < min1 {
					min1 = m.cc1[f]
				}
			}
			if g.Kind == circuit.Or {
				m.cc0[id], m.cc1[id] = sum0, min1+1
			} else {
				m.cc1[id], m.cc0[id] = sum0, min1+1
			}
		default: // Xor, Xnor: rough symmetric estimate
			sum := 1
			for _, f := range g.Fanin {
				if m.cc0[f] < m.cc1[f] {
					sum += m.cc0[f]
				} else {
					sum += m.cc1[f]
				}
			}
			m.cc0[id], m.cc1[id] = sum, sum
		}
	}
	m.obsDepth = make([]int, n)
	for i := range m.obsDepth {
		m.obsDepth[i] = -1
	}
	topo := m.c.Topo()
	for id := range m.c.Gates {
		if m.tapGate[id] {
			m.obsDepth[id] = 0
		}
	}
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		best := m.obsDepth[id]
		for _, fo := range m.c.Gates[id].Fanout {
			if m.c.Gates[fo].Kind == circuit.DFF {
				continue
			}
			if d := m.obsDepth[fo]; d >= 0 && (best < 0 || d+1 < best) {
				best = d + 1
			}
		}
		m.obsDepth[id] = best
	}
}

// cost returns the controllability cost of setting net to v.
func (m *machine) cost(net int, v value) int {
	if v == v0 {
		return m.cc0[net]
	}
	return m.cc1[net]
}

// siteNet returns the gate whose output signal is the fault site (the
// driving net for pin faults).
func (m *machine) siteNet() int {
	if m.flt.Pin < 0 {
		return m.flt.Gate
	}
	return m.c.Gates[m.flt.Gate].Fanin[m.flt.Pin]
}

// evalAt recomputes good and bad for one combinational gate from its
// current fanin values, honouring the fault forcing.
func (m *machine) evalAt(id int) {
	m.evals++
	g := &m.c.Gates[id]
	m.good[id] = eval3(g.Kind, g.Fanin, m.good, -1, vX)
	switch {
	case id != m.flt.Gate:
		m.bad[id] = eval3(g.Kind, g.Fanin, m.bad, -1, vX)
	case m.flt.Pin < 0:
		m.bad[id] = m.stuck
	default:
		m.bad[id] = eval3(g.Kind, g.Fanin, m.bad, m.flt.Pin, m.stuck)
	}
}

// imply evaluates both machines from the current source assignment and
// starts a new trail.
func (m *machine) imply() {
	m.trail = m.trail[:0]
	for i, id := range m.srcs {
		m.good[id] = m.assign[i]
		m.bad[id] = m.assign[i]
	}
	for _, id := range m.c.Topo() {
		m.evalAt(id)
	}
}

// trailEntry is one net's good and faulty values before an implication
// changed them.
type trailEntry struct {
	id        int32
	good, bad value
}

// implySrc incrementally re-implies both machines after one source
// assignment changed — the per-decision cost of the PODEM loop. It is
// event-driven on the shared level worklist: a gate is re-evaluated only
// when one of its fanins changed, and queues its fanouts only when its own
// good or faulty value moved, so the cost tracks the region whose values
// actually change rather than the structural fanout cone. The implication
// fixpoint is unique, so the result equals a full imply. Every change is
// recorded on the trail.
func (m *machine) implySrc(srcIdx int) {
	srcGate := m.srcs[srcIdx]
	nv := m.assign[srcIdx]
	if m.good[srcGate] == nv && m.bad[srcGate] == nv {
		return
	}
	m.trail = append(m.trail, trailEntry{int32(srcGate), m.good[srcGate], m.bad[srcGate]})
	m.good[srcGate] = nv
	m.bad[srcGate] = nv
	q := &m.queue
	for _, fo := range m.c.Gates[srcGate].Fanout {
		q.Push(fo)
	}
	for {
		id, ok := q.Next()
		if !ok {
			return
		}
		og, ob := m.good[id], m.bad[id]
		m.evalAt(id)
		if m.good[id] != og || m.bad[id] != ob {
			m.trail = append(m.trail, trailEntry{int32(id), og, ob})
			for _, fo := range m.c.Gates[id].Fanout {
				q.Push(fo)
			}
		}
	}
}

// undo restores the values the trail recorded since its length was mark:
// the state of the assignment at that point, which is again the current
// assignment once every decision made since then is unassigned.
func (m *machine) undo(mark int) {
	for i := len(m.trail) - 1; i >= mark; i-- {
		e := m.trail[i]
		m.good[e.id], m.bad[e.id] = e.good, e.bad
	}
	m.trail = m.trail[:mark]
}

// effect reports whether net s carries a defined fault effect.
func (m *machine) effect(s int) bool {
	return m.good[s] != vX && m.bad[s] != vX && m.good[s] != m.bad[s]
}

// detected reports whether any observation point carries the fault effect.
// Only taps inside the site cone can.
func (m *machine) detected() bool {
	for _, tg := range m.siteTaps {
		if m.effect(tg) {
			return true
		}
	}
	return false
}

// activated reports whether the fault site currently launches an effect:
// the good value is defined and differs from the stuck value.
func (m *machine) activated() bool {
	s := m.siteNet()
	return m.good[s] != vX && m.good[s] != m.stuck
}

// activationConflict reports whether activation is impossible under the
// current assignment (site value defined and equal to the stuck value).
func (m *machine) activationConflict() bool {
	s := m.siteNet()
	return m.good[s] != vX && m.good[s] == m.stuck
}

// dFrontier returns the gates through which the fault effect can still
// advance: some fanin carries the effect (or, for a pin fault, the fault
// gate itself is activated) and the gate output is not yet fully defined
// in both machines. The result is sorted by distance to the nearest
// observation point, closest first, ties in topological order.
//
// Effects originate at the fault gate, and any other gate carries one only
// if some fanin does: a defined good/faulty difference at a gate output
// needs one at an input. So the frontier is found by a walk from the fault
// gate through effect-carrying gates, not by a scan of the site cone.
func (m *machine) dFrontier() []int {
	out := m.frontier[:0]
	m.seenCur++
	seen, cur := m.seenVer, m.seenCur
	stack := m.xstack[:0]
	g := m.flt.Gate
	seen[g] = cur
	if m.effect(g) {
		stack = append(stack, g)
	} else if m.flt.Pin >= 0 && m.activated() && (m.good[g] == vX || m.bad[g] == vX) {
		// The effect originates inside the fault gate: the forced pin
		// differs from its good value.
		out = append(out, g)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range m.c.Gates[id].Fanout {
			if seen[fo] == cur || m.c.Gates[fo].Kind == circuit.DFF {
				continue
			}
			seen[fo] = cur
			if m.good[fo] == vX || m.bad[fo] == vX {
				out = append(out, fo)
			} else if m.effect(fo) {
				stack = append(stack, fo)
			}
		}
	}
	m.xstack = stack
	// Insertion sort: frontiers are small and this runs once per decision,
	// where sort.Slice's reflection closure allocated on every call.
	less := func(a, b int) bool {
		da, db := m.obsDepth[a], m.obsDepth[b]
		if da < 0 {
			da = 1 << 30
		}
		if db < 0 {
			db = 1 << 30
		}
		return da < db || da == db && m.topoPos[a] < m.topoPos[b]
	}
	for i := 1; i < len(out); i++ {
		v := out[i]
		j := i
		for ; j > 0 && less(v, out[j-1]); j-- {
			out[j] = out[j-1]
		}
		out[j] = v
	}
	m.frontier = out
	return out
}

// xPathExists reports whether some frontier gate still has a path of
// not-fully-defined gates to an observation point — the PODEM X-path
// check that prunes dead search branches early. The visited set is the
// machine's versioned seenVer array (O(1) clear per call).
func (m *machine) xPathExists(frontier []int) bool {
	allowed := func(id int) bool { return m.good[id] == vX || m.bad[id] == vX }
	m.seenCur++
	seen, cur := m.seenVer, m.seenCur
	stack := m.xstack[:0]
	defer func() { m.xstack = stack[:0] }()
	for _, gd := range frontier {
		if seen[gd] != cur && allowed(gd) {
			seen[gd] = cur
			stack = append(stack, gd)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if m.tapGate[id] {
			return true
		}
		for _, fo := range m.c.Gates[id].Fanout {
			if m.c.Gates[fo].Kind == circuit.DFF {
				// The D pin itself is the observation point.
				return true
			}
			if seen[fo] != cur && allowed(fo) {
				seen[fo] = cur
				stack = append(stack, fo)
			}
		}
	}
	return false
}
