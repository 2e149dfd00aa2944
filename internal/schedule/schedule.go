// Package schedule implements the two-step test-schedule optimization of
// Sec. IV: first a minimum set of FAST clock periods is selected (PLL
// re-locking makes frequency count the dominant test-time term), then for
// each selected period a minimum set of (pattern, monitor-configuration)
// combinations. Both steps are set-covering problems solved either exactly
// as zero-one programs (the paper's proposed method, column "prop.") or by
// the greedy heuristic of [17] (column "heur."); the conventional-FAST
// baseline (column "conv.") runs without monitors.
package schedule

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"time"

	"fastmon/internal/bitset"
	"fastmon/internal/cache"
	"fastmon/internal/chaos"
	"fastmon/internal/detect"
	"fastmon/internal/dot"
	"fastmon/internal/fmerr"
	"fastmon/internal/ilp"
	"fastmon/internal/interval"
	"fastmon/internal/obs"
	"fastmon/internal/tunit"
)

// Chaos injection points at the two optimization steps of Fig. 4's
// scheduler: the Step-1 frequency-selection solve and each Step-2
// per-period combo solve.
var (
	ptFreq  = chaos.Register("schedule.freq", fmerr.StageSchedule)
	ptCombo = chaos.Register("schedule.combo", fmerr.StageSchedule)
)

// Method selects the optimization algorithm.
type Method int

const (
	// Conventional is FAST without monitors: detection through standard
	// flip-flops only; frequency and pattern selection still optimized.
	Conventional Method = iota
	// Heuristic uses monitors with greedy set covering ([17]).
	Heuristic
	// ILP uses monitors with exact zero-one programming (the paper).
	ILP
)

func (m Method) String() string {
	switch m {
	case Conventional:
		return "conv"
	case Heuristic:
		return "heur"
	case ILP:
		return "ilp"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Options parameterizes schedule construction.
type Options struct {
	// Cfg is the detection configuration the ranges were computed under.
	Cfg detect.Config
	// Delays are the monitor delay elements (ignored for Conventional).
	Delays []tunit.Time
	// Method selects the algorithm.
	Method Method
	// Coverage is the required fraction of coverable target faults
	// (0 or 1 = full coverage; 0.99, 0.98, … for Table III).
	Coverage float64
	// FreeConfig lets every monitor select its own delay element per
	// application instead of the paper's shared setting — an optimistic
	// extension model that lower-bounds the achievable schedule size.
	FreeConfig bool
	// SolverBudget bounds each exact solve; exceeding it falls back to
	// the best incumbent (the paper aborts its ILP after 1 hour). Zero
	// means 10 seconds. The budget is per solve: Step 1 and every Step-2
	// period solve run one after another, each with its own full window.
	SolverBudget time.Duration
}

func (o Options) budget() time.Duration {
	if o.SolverBudget <= 0 {
		return 10 * time.Second
	}
	return o.SolverBudget
}

// ConfigFree marks a combo whose monitors are tuned individually per
// delay element (the beyond-the-paper extension); ConfigOff marks a combo
// that uses flip-flops only.
const (
	ConfigOff  = -1
	ConfigFree = -2
)

// Combo is one schedule entry at a given period: pattern index plus
// monitor configuration (index into Options.Delays, ConfigOff for
// "monitors unused / flip-flops only", or ConfigFree for per-monitor
// independent settings).
type Combo struct {
	Pattern int
	Config  int
}

// PeriodPlan is the part of the schedule applied at one clock period.
type PeriodPlan struct {
	Period tunit.Time
	// Faults lists the target-fault indices assigned to this period by
	// the fault-dropping pass (Φ_j^opt).
	Faults []int
	// Combos is the optimized set of pattern-configuration combinations
	// covering Faults at this period (Ω_j).
	Combos []Combo
}

// SolverStats aggregates the exact-solver effort spent building one
// schedule: the covering solves run (frequency selection plus one combo
// selection per period), branch-and-bound nodes expanded, and incumbent
// improvements found. All zero for the greedy and conventional methods.
type SolverStats struct {
	Solves     int `json:"solves"`
	Nodes      int `json:"nodes"`
	Incumbents int `json:"incumbents"`
	// MaxGap is the largest relative bound gap any budget-aborted solve
	// exited with (zero when every solve proved optimality).
	MaxGap float64 `json:"max_gap,omitempty"`
}

// add rolls one exact solve's effort into the totals.
func (st *SolverStats) add(res ilp.CoverResult) {
	st.Solves++
	st.Nodes += res.Nodes
	st.Incumbents += res.Incumbents
	if res.Gap > st.MaxGap {
		st.MaxGap = res.Gap
	}
}

// Schedule is the complete FAST schedule S ⊆ F × P × C.
type Schedule struct {
	Method  Method
	Periods []PeriodPlan
	// Coverable is the number of target faults detectable at all under
	// the method's observation model.
	Coverable int
	// Covered is the number of target faults the schedule detects.
	Covered int
	// FreqOptimal / CombosOptimal report whether the respective solves
	// were proven optimal (false after budget fallback or for greedy).
	FreqOptimal   bool
	CombosOptimal bool
	// Degradation is the worst result-quality rung any covering solve of
	// this schedule settled on: exact when every exact solve proved
	// optimality, incumbent when a budget abort fell back to the
	// greedy-seeded incumbent. Greedy and conventional methods report
	// exact — the heuristic is the requested algorithm there, not a
	// degradation of it.
	Degradation fmerr.Degradation
	// Solver summarizes the exact-solver effort behind this schedule.
	Solver SolverStats
}

// NumFrequencies returns |F|, the number of selected clock periods.
func (s *Schedule) NumFrequencies() int { return len(s.Periods) }

// Size returns |S|, the number of (f, p, c) applications.
func (s *Schedule) Size() int {
	n := 0
	for _, p := range s.Periods {
		n += len(p.Combos)
	}
	return n
}

// Build constructs a schedule for the given target-fault detection data.
// The data slice must contain exactly the target faults (Φ_tar); indices
// into it identify faults throughout the schedule.
//
// Each exact covering solve runs under a child context bounded by
// Options.SolverBudget; exceeding the budget degrades that solve to its
// incumbent (recorded in Schedule.Degradation). Cancelling ctx aborts the
// whole construction with a stage-attributed error.
func Build(ctx context.Context, data []detect.FaultData, opt Options) (*Schedule, error) {
	if store := cache.From(ctx); store != nil {
		v, err := cache.Memo(ctx, store, cacheKey(data, opt),
			func(ctx context.Context) (Schedule, error) {
				s, err := build(ctx, data, opt)
				if err != nil {
					return Schedule{}, err
				}
				return *s, nil
			})
		if err != nil {
			return nil, err
		}
		return &v, nil
	}
	return build(ctx, data, opt)
}

// cacheKey fingerprints everything Build's output depends on. The schedule
// works on indices into the target data, so the fault identities are
// irrelevant; what matters is the exact detection-range structure (the
// Step-1 frequency cover and the Step-2 combo covers are both functions of
// it), the delay elements, the method, the coverage target, and the solver
// budget (a different budget can settle on a different incumbent).
func cacheKey(data []detect.FaultData, opt Options) cache.Key {
	h := cache.NewHasher("schedule")
	h.Int("faults", int64(len(data)))
	for i := range data {
		fd := &data[i]
		h.Int("fd.per", int64(len(fd.Per)))
		for _, pr := range fd.Per {
			h.Int("pr.pattern", int64(pr.Pattern))
			h.Times("pr.ff", pr.FF.Boundaries())
			h.Times("pr.sr", pr.SR.Boundaries())
		}
	}
	h.Time("cfg.clk", opt.Cfg.Clk)
	h.Time("cfg.tmin", opt.Cfg.TMin)
	h.Time("cfg.delta", opt.Cfg.Delta)
	h.Time("cfg.glitch", opt.Cfg.Glitch)
	h.Times("delays", opt.Delays)
	h.Int("method", int64(opt.Method))
	h.F64("coverage", opt.Coverage)
	h.Bool("freeconfig", opt.FreeConfig)
	h.Int("budget_ns", int64(opt.budget()))
	return h.Key()
}

// comboConfigs returns the candidate monitor configurations for a build:
// flip-flops only when there are no delay elements, one free-configuration
// pseudo-config under the FreeConfig extension, and otherwise one config
// per delay element (monitors are always engaged when available — a combo
// that ignores them is dominated by any delay setting).
func comboConfigs(opt Options, delays []tunit.Time) []int {
	if len(delays) == 0 {
		return []int{ConfigOff}
	}
	if opt.FreeConfig {
		return []int{ConfigFree}
	}
	configs := make([]int, len(delays))
	for ci := range delays {
		configs[ci] = ci
	}
	return configs
}

// rangeTable is the shared immutable detection-range memo of one build:
// every per-(fault, pattern, config) combined range is computed exactly
// once, before Step 1, and then only read — by candidate discretization
// (through the per-fault unions), by every Step-2 combo solve, and by
// Validate. The old code recomputed each CombinedAt/CombinedFree from
// scratch at every lookup, allocating intermediate clip/shift/union sets
// each time.
type rangeTable struct {
	// cfgs is the config axis (comboConfigs order); ck below indexes it.
	cfgs []int
	// per[fi][pi][ck] is data[fi].Per[pi]'s combined detection range under
	// cfgs[ck].
	per [][][]interval.Set
	// combined[fi] is the union of per[fi][·][·] — identical to
	// data[fi].Combined(cfg, delays), because shift and clip distribute
	// over union and the canonical interval representation is unique.
	combined []interval.Set
}

// dropPool recycles the per-period fault-set scratch of the fault-dropping
// pass.
var dropPool bitset.Pool

// newRangeTable materializes the memo. The construction is a single
// serial pass (its output feeds Step 1, so there is nothing to overlap it
// with); each entry is built into a reused accumulator and frozen with an
// exact-size copy.
func newRangeTable(ctx context.Context, data []detect.FaultData, opt Options, delays []tunit.Time) *rangeTable {
	tbl := &rangeTable{
		cfgs:     comboConfigs(opt, delays),
		per:      make([][][]interval.Set, len(data)),
		combined: make([]interval.Set, len(data)),
	}
	var acc, all interval.Accum
	scratch := interval.GetScratch()
	defer interval.PutScratch(scratch)
	entries := int64(0)
	for fi := range data {
		per := make([][]interval.Set, len(data[fi].Per))
		all.Reset()
		for pi, pr := range data[fi].Per {
			row := make([]interval.Set, len(tbl.cfgs))
			for ck, ci := range tbl.cfgs {
				switch {
				case ci == ConfigFree:
					pr.CombinedFreeInto(opt.Cfg, delays, &acc, scratch)
				case ci >= 0:
					pr.CombinedAtInto(opt.Cfg, delays[ci], &acc, scratch)
				default:
					pr.CombinedAtInto(opt.Cfg, -1, &acc, scratch)
				}
				row[ck] = acc.Copy()
				all.Add(row[ck])
				entries++
			}
			per[pi] = row
		}
		tbl.per[fi] = per
		tbl.combined[fi] = all.Copy()
	}
	obs.From(ctx).Counter("schedule.range_memo_misses").Add(entries)
	return tbl
}

// build is the uncached body of Build.
func build(ctx context.Context, data []detect.FaultData, opt Options) (*Schedule, error) {
	delays := opt.Delays
	if opt.Method == Conventional {
		delays = nil
	}

	s := &Schedule{Method: opt.Method}
	_, span := obs.StartSpan(ctx, "schedule")
	defer func() {
		o := obs.From(ctx)
		o.Counter("schedule.builds").Inc()
		o.Counter("schedule.frequencies").Add(int64(len(s.Periods)))
		o.Counter("schedule.combos").Add(int64(s.Size()))
		for _, p := range s.Periods {
			o.Histogram("schedule.combos_per_frequency").Observe(int64(len(p.Combos)))
		}
		span.End(
			slog.String("method", opt.Method.String()),
			slog.Int("frequencies", len(s.Periods)),
			slog.Int("combos", s.Size()),
			slog.Int("covered", s.Covered),
			slog.Int("solver_nodes", s.Solver.Nodes))
	}()

	// Step 0: combined detection ranges and observation-time candidates.
	// The range table computes every per-(fault, pattern, config) range
	// exactly once up front; its per-fault unions are byte-identical to
	// FaultData.Combined, and Step 2 reads the per-entry rows instead of
	// recomputing them per period.
	tbl := newRangeTable(ctx, data, opt, delays)
	cands := dot.Discretize(tbl.combined)
	universe := dot.CoverableFaults(cands, len(data))
	coverable := universe.Count()

	s.Coverable = coverable
	if coverable == 0 {
		s.FreqOptimal, s.CombosOptimal = true, true
		return s, nil
	}

	// Step 1: minimum clock-period selection.
	if err := chaos.Point(ctx, ptFreq); err != nil {
		return nil, fmerr.Wrap(fmerr.StageSchedule, "frequency-selection", err)
	}
	sets := make([]*bitset.Set, len(cands))
	for i, c := range cands {
		sets[i] = c.Faults
	}
	quota := Quota(coverable, opt.Coverage)
	var selected []int
	switch {
	case opt.Method == ILP && quota == coverable:
		res, err := solveBudgeted(ctx, opt, func(sctx context.Context) (ilp.CoverResult, error) {
			return ilp.SetCover(sctx, sets, universe, ilp.Options{})
		})
		if err != nil {
			return nil, fmerr.Wrap(fmerr.StageSchedule, "frequency-selection", err)
		}
		selected, s.FreqOptimal = res.Selected, res.Optimal
		s.Degradation = fmerr.Worse(s.Degradation, res.Degradation)
		s.Solver.add(res)
	case opt.Method == ILP:
		res, err := solveBudgeted(ctx, opt, func(sctx context.Context) (ilp.CoverResult, error) {
			return ilp.PartialCover(sctx, sets, universe, quota, ilp.Options{})
		})
		if err != nil {
			return nil, fmerr.Wrap(fmerr.StageSchedule, "frequency-selection", err)
		}
		selected, s.FreqOptimal = res.Selected, res.Optimal
		s.Degradation = fmerr.Worse(s.Degradation, res.Degradation)
		s.Solver.add(res)
	case quota == coverable:
		var err error
		selected, err = ilp.GreedyCover(sets, universe)
		if err != nil {
			return nil, fmerr.Wrap(fmerr.StageSchedule, "frequency-selection", err)
		}
	default:
		var err error
		selected, err = ilp.GreedyPartialCover(sets, universe, quota)
		if err != nil {
			return nil, fmerr.Wrap(fmerr.StageSchedule, "frequency-selection", err)
		}
	}

	// Fault dropping: process the selected periods by decreasing fault
	// count; each fault is assigned to the first period that detects it.
	cnt := make([]int, len(cands))
	for _, ci := range selected {
		cnt[ci] = cands[ci].Faults.Count()
	}
	sort.SliceStable(selected, func(a, b int) bool {
		return cnt[selected[a]] > cnt[selected[b]]
	})
	assigned := bitset.New(len(data))
	plans := make([]PeriodPlan, 0, len(selected))
	for _, ci := range selected {
		c := cands[ci]
		if quota >= coverable && c.Faults.AndNotCount(assigned) == 0 {
			// Full coverage: nothing new here, skip without cloning.
			continue
		}
		mine := dropPool.CloneOf(c.Faults)
		mine.AndNot(assigned)
		if quota < coverable {
			// Partial coverage: stop assigning once the quota is reached.
			deficit := quota - assigned.Count()
			if deficit <= 0 {
				dropPool.Put(mine)
				break
			}
			if mine.Count() > deficit {
				// Keep only the first `deficit` faults for determinism.
				members := mine.Members(nil)
				mine.Clear()
				for _, fi := range members[:deficit] {
					mine.Add(fi)
				}
			}
		}
		if mine.Empty() {
			dropPool.Put(mine)
			continue
		}
		assigned.Or(mine)
		plans = append(plans, PeriodPlan{Period: c.T, Faults: mine.Members(nil)})
		dropPool.Put(mine)
	}
	s.Covered = assigned.Count()

	// Step 2: per period, minimum pattern-configuration selection. The
	// periods are independent after fault dropping; each is solved in
	// turn.
	s.CombosOptimal = true
	hits := int64(0)
	for pi := range plans {
		if err := ctx.Err(); err != nil {
			return nil, fmerr.Wrap(fmerr.StageSchedule, "combo-selection", err)
		}
		if err := chaos.Point(ctx, ptCombo); err != nil {
			return nil, fmerr.Wrap(fmerr.StageSchedule, "combo-selection", err)
		}
		n, err := optimizeCombos(ctx, data, tbl, &plans[pi], opt, s)
		if err != nil {
			return nil, err
		}
		hits += n
	}
	obs.From(ctx).Counter("schedule.range_memo_hits").Add(hits)
	sort.Slice(plans, func(a, b int) bool { return plans[a].Period < plans[b].Period })
	s.Periods = plans
	return s, nil
}

// Quota returns the number of faults a partial-coverage target requires:
// ⌈coverable · coverage⌉ in exact integer arithmetic. Coverage targets
// are taken at micro-precision (rounded to the nearest 1e-6, which covers
// every value the paper's Table III uses), so float representation error
// in products like 1000 × 0.999 can never shift the quota by one fault —
// the defect the former float-plus-0.999999 rounding hack had. Coverage
// values ≤ 0 or ≥ 1 mean full coverage.
func Quota(coverable int, coverage float64) int {
	if coverage <= 0 || coverage >= 1 || coverable <= 0 {
		return coverable
	}
	num := int64(math.Round(coverage * 1e6))
	q := (int64(coverable)*num + 999999) / 1000000
	if q > int64(coverable) {
		return coverable
	}
	if q < 0 {
		return 0
	}
	return int(q)
}

// solveBudgeted runs one exact covering solve under a child context
// carrying the per-solve time budget (the paper aborts its ILP after one
// hour; exceeding the budget falls back to the incumbent).
func solveBudgeted(ctx context.Context, opt Options,
	solve func(context.Context) (ilp.CoverResult, error)) (ilp.CoverResult, error) {
	sctx, cancel := context.WithTimeout(ctx, opt.budget())
	defer cancel()
	return solve(sctx)
}

// optimizeCombos fills plan.Combos with a minimal covering set of
// (pattern, config) combinations for the faults assigned to the period.
// Detection ranges come from the shared memo table — each lookup is a
// binary-search Contains on a prebuilt canonical set instead of a fresh
// clip/shift/union cascade; it returns the number of lookups. The solve's
// optimality, degradation and effort are merged into s.
func optimizeCombos(ctx context.Context, data []detect.FaultData, tbl *rangeTable, plan *PeriodPlan,
	opt Options, s *Schedule) (lookups int64, err error) {

	type key struct{ pattern, config int }
	cover := map[key]*bitset.Set{}
	for _, fi := range plan.Faults {
		prs := data[fi].Per
		rows := tbl.per[fi]
		for pi := range prs {
			for ck, ci := range tbl.cfgs {
				lookups++
				if rows[pi][ck].Contains(plan.Period) {
					k := key{prs[pi].Pattern, ci}
					if cover[k] == nil {
						cover[k] = bitset.New(len(data))
					}
					cover[k].Add(fi)
				}
			}
		}
	}
	keys := make([]key, 0, len(cover))
	for k := range cover {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].pattern != keys[b].pattern {
			return keys[a].pattern < keys[b].pattern
		}
		return keys[a].config < keys[b].config
	})
	sets := make([]*bitset.Set, len(keys))
	for i, k := range keys {
		sets[i] = cover[k]
	}
	target := bitset.New(len(data))
	for _, fi := range plan.Faults {
		target.Add(fi)
	}
	var chosen []int
	if opt.Method == ILP {
		res, err := solveBudgeted(ctx, opt, func(sctx context.Context) (ilp.CoverResult, error) {
			return ilp.SetCover(sctx, sets, target, ilp.Options{})
		})
		if err != nil {
			return lookups, fmerr.Wrap(fmerr.StageSchedule, fmt.Sprintf("combo-selection@%s", plan.Period), err)
		}
		chosen = res.Selected
		if !res.Optimal {
			s.CombosOptimal = false
		}
		s.Degradation = fmerr.Worse(s.Degradation, res.Degradation)
		s.Solver.add(res)
	} else {
		chosen, err = ilp.GreedyCover(sets, target)
		if err != nil {
			return lookups, fmerr.Wrap(fmerr.StageSchedule, fmt.Sprintf("combo-selection@%s", plan.Period), err)
		}
		s.CombosOptimal = false
	}
	for _, i := range chosen {
		plan.Combos = append(plan.Combos, Combo{Pattern: keys[i].pattern, Config: keys[i].config})
	}
	return lookups, nil
}

// Validate checks that the schedule really covers every fault it claims:
// each assigned fault must be detected by at least one combo of its
// period. It returns an error describing the first violation.
func Validate(data []detect.FaultData, s *Schedule, opt Options) error {
	delays := opt.Delays
	if s.Method == Conventional {
		delays = nil
	}
	// Validate builds its own range memo (it may run against data no Build
	// call touched); combo configs outside the table — possible only for
	// hand-constructed schedules — fall back to direct computation.
	tbl := newRangeTable(context.Background(), data, opt, delays)
	ck := make(map[int]int, len(tbl.cfgs))
	for i, ci := range tbl.cfgs {
		ck[ci] = i
	}
	total := 0
	for _, plan := range s.Periods {
		for _, fi := range plan.Faults {
			ok := false
			for _, combo := range plan.Combos {
				for pi, pr := range data[fi].Per {
					if pr.Pattern != combo.Pattern {
						continue
					}
					var rng interval.Set
					if k, known := ck[combo.Config]; known {
						rng = tbl.per[fi][pi][k]
					} else {
						switch {
						case combo.Config == ConfigFree:
							rng = pr.CombinedFree(opt.Cfg, delays)
						case combo.Config >= 0:
							rng = pr.CombinedAt(opt.Cfg, delays[combo.Config])
						default:
							rng = pr.CombinedAt(opt.Cfg, -1)
						}
					}
					if rng.Contains(plan.Period) {
						ok = true
						break
					}
				}
				if ok {
					break
				}
			}
			if !ok {
				return fmt.Errorf("schedule: fault %d not covered at period %s", fi, plan.Period)
			}
			total++
		}
	}
	if total != s.Covered {
		return fmt.Errorf("schedule: covers %d faults, claims %d", total, s.Covered)
	}
	return nil
}
