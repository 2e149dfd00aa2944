package schedule

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fastmon/internal/bitset"
	"fastmon/internal/detect"
	"fastmon/internal/dot"
	"fastmon/internal/fmerr"
	"fastmon/internal/ilp"
	"fastmon/internal/interval"
	"fastmon/internal/obs"
	"fastmon/internal/tunit"
)

// referenceBuild is a verbatim transcription of the schedule kernel as it
// stood before the range-table overhaul: per-fault Combined ranges
// recomputed up front, Clone-based fault dropping, and per-period combo
// covers that recompute CombinedAt/CombinedFree at every lookup. It is the
// oracle of TestScheduleKernelMatchesReference — the memoized Build must
// produce bit-identical schedules.
func referenceBuild(ctx context.Context, data []detect.FaultData, opt Options) (*Schedule, error) {
	delays := opt.Delays
	if opt.Method == Conventional {
		delays = nil
	}
	s := &Schedule{Method: opt.Method}

	ranges := make([]interval.Set, len(data))
	for i := range data {
		ranges[i] = data[i].Combined(opt.Cfg, delays)
	}
	cands := dot.Discretize(ranges)
	universe := dot.CoverableFaults(cands, len(data))
	coverable := universe.Count()
	s.Coverable = coverable
	if coverable == 0 {
		s.FreqOptimal, s.CombosOptimal = true, true
		return s, nil
	}

	sets := make([]*bitset.Set, len(cands))
	for i, c := range cands {
		sets[i] = c.Faults
	}
	quota := Quota(coverable, opt.Coverage)
	var selected []int
	var err error
	switch {
	case opt.Method == ILP && quota == coverable:
		var res ilp.CoverResult
		res, err = solveBudgeted(ctx, opt, func(sctx context.Context) (ilp.CoverResult, error) {
			return ilp.SetCover(sctx, sets, universe, ilp.Options{})
		})
		selected, s.FreqOptimal = res.Selected, res.Optimal
		s.Degradation = fmerr.Worse(s.Degradation, res.Degradation)
		s.Solver.add(res)
	case opt.Method == ILP:
		var res ilp.CoverResult
		res, err = solveBudgeted(ctx, opt, func(sctx context.Context) (ilp.CoverResult, error) {
			return ilp.PartialCover(sctx, sets, universe, quota, ilp.Options{})
		})
		selected, s.FreqOptimal = res.Selected, res.Optimal
		s.Degradation = fmerr.Worse(s.Degradation, res.Degradation)
		s.Solver.add(res)
	case quota == coverable:
		selected, err = ilp.GreedyCover(sets, universe)
	default:
		selected, err = ilp.GreedyPartialCover(sets, universe, quota)
	}
	if err != nil {
		return nil, err
	}

	sort.SliceStable(selected, func(a, b int) bool {
		return cands[selected[a]].Faults.Count() > cands[selected[b]].Faults.Count()
	})
	assigned := bitset.New(len(data))
	plans := make([]PeriodPlan, 0, len(selected))
	for _, ci := range selected {
		c := cands[ci]
		mine := c.Faults.Clone()
		mine.AndNot(assigned)
		if quota < coverable {
			deficit := quota - assigned.Count()
			if deficit <= 0 {
				break
			}
			if mine.Count() > deficit {
				members := mine.Members(nil)
				mine.Clear()
				for _, fi := range members[:deficit] {
					mine.Add(fi)
				}
			}
		}
		if mine.Empty() {
			continue
		}
		assigned.Or(mine)
		plans = append(plans, PeriodPlan{Period: c.T, Faults: mine.Members(nil)})
	}
	s.Covered = assigned.Count()

	s.CombosOptimal = true
	for pi := range plans {
		if err := referenceOptimizeCombos(ctx, data, &plans[pi], opt, delays, s); err != nil {
			return nil, err
		}
	}
	sort.Slice(plans, func(a, b int) bool { return plans[a].Period < plans[b].Period })
	s.Periods = plans
	return s, nil
}

func referenceOptimizeCombos(ctx context.Context, data []detect.FaultData, plan *PeriodPlan,
	opt Options, delays []tunit.Time, s *Schedule) error {

	configs := []int{ConfigOff}
	if len(delays) > 0 {
		if opt.FreeConfig {
			configs = []int{ConfigFree}
		} else {
			configs = configs[:0]
			for ci := range delays {
				configs = append(configs, ci)
			}
		}
	}
	type key struct{ pattern, config int }
	cover := map[key]*bitset.Set{}
	for _, fi := range plan.Faults {
		for _, pr := range data[fi].Per {
			for _, ci := range configs {
				var rng interval.Set
				switch {
				case ci == ConfigFree:
					rng = pr.CombinedFree(opt.Cfg, delays)
				case ci >= 0:
					rng = pr.CombinedAt(opt.Cfg, delays[ci])
				default:
					rng = pr.CombinedAt(opt.Cfg, -1)
				}
				if rng.Contains(plan.Period) {
					k := key{pr.Pattern, ci}
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
			return err
		}
		chosen = res.Selected
		if !res.Optimal {
			s.CombosOptimal = false
		}
		s.Degradation = fmerr.Worse(s.Degradation, res.Degradation)
		s.Solver.add(res)
	} else {
		var err error
		chosen, err = ilp.GreedyCover(sets, target)
		if err != nil {
			return err
		}
		s.CombosOptimal = false
	}
	for _, i := range chosen {
		plan.Combos = append(plan.Combos, Combo{Pattern: keys[i].pattern, Config: keys[i].config})
	}
	return nil
}

// referenceData generates synthetic circuits exercising every config
// regime: monitors with shared settings, FreeConfig, no delays, and
// patterns whose SR ranges differ from FF (so memoized shift/clip paths
// actually matter).
func referenceData(seed int64, nFaults, nPatterns, nDelays int) ([]detect.FaultData, Options) {
	cfg := detect.Config{Clk: 1000, TMin: 100, Delta: 5}
	rng := rand.New(rand.NewSource(seed))
	data := make([]detect.FaultData, nFaults)
	for i := range data {
		nPer := 1 + rng.Intn(3)
		for p := 0; p < nPer; p++ {
			lo := tunit.Time(100 + rng.Intn(700))
			hi := lo + tunit.Time(40+rng.Intn(200))
			pr := detect.PatternRange{
				Pattern: rng.Intn(nPatterns),
				FF:      interval.FromPoints(lo, hi),
			}
			if rng.Intn(2) == 0 {
				slo := tunit.Time(100 + rng.Intn(700))
				pr.SR = interval.FromPoints(slo, slo+tunit.Time(30+rng.Intn(150)))
			}
			data[i].Per = append(data[i].Per, pr)
		}
	}
	var delays []tunit.Time
	for d := 0; d < nDelays; d++ {
		delays = append(delays, tunit.Time(50*(d+1)))
	}
	return data, Options{Cfg: cfg, Delays: delays, Method: ILP}
}

// TestScheduleKernelMatchesReference is the differential lock on the
// range-table overhaul: the memoized Build must produce schedules
// bit-identical to the pre-overhaul reference kernel, across the paper's
// s27 suite and generated circuits, all methods, full and partial
// coverage, and FreeConfig on and off.
func TestScheduleKernelMatchesReference(t *testing.T) {
	type instance struct {
		name string
		data []detect.FaultData
		opt  Options
	}
	var instances []instance
	s27data, s27opt := buildS27(t)
	instances = append(instances, instance{"s27", s27data, s27opt})
	gen1, genOpt1 := referenceData(42, 120, 8, 3)
	instances = append(instances, instance{"gen-delays", gen1, genOpt1})
	gen2, genOpt2 := referenceData(7, 80, 6, 0)
	instances = append(instances, instance{"gen-nodelays", gen2, genOpt2})

	for _, inst := range instances {
		for _, m := range []Method{ILP, Heuristic, Conventional} {
			for _, cov := range []float64{1.0, 0.9} {
				for _, free := range []bool{false, true} {
					if free && len(inst.opt.Delays) == 0 {
						continue
					}
					o := inst.opt
					o.Method, o.Coverage, o.FreeConfig = m, cov, free
					name := fmt.Sprintf("%s/%v/cov=%g/free=%v", inst.name, m, cov, free)
					ref, err := referenceBuild(context.Background(), inst.data, o)
					if err != nil {
						t.Fatalf("%s reference: %v", name, err)
					}
					got, err := Build(context.Background(), inst.data, o)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !scheduleEqual(ref, got) {
						t.Fatalf("%s: schedule differs from reference:\nref: %+v\nnew: %+v", name, ref, got)
					}
					if err := Validate(inst.data, got, o); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

// TestRangeMemoMetrics checks the memo's observability wiring: building a
// schedule under an observer must record table entries as misses and
// combo lookups as hits.
func TestRangeMemoMetrics(t *testing.T) {
	data, opt := referenceData(42, 120, 8, 3)
	o := obs.New(nil)
	ctx := obs.With(context.Background(), o)
	if _, err := Build(ctx, data, opt); err != nil {
		t.Fatal(err)
	}
	misses := o.Counter("schedule.range_memo_misses").Value()
	hits := o.Counter("schedule.range_memo_hits").Value()
	entries := int64(0)
	for _, fd := range data {
		entries += int64(len(fd.Per) * len(opt.Delays))
	}
	if misses != entries {
		t.Fatalf("range_memo_misses = %d, want %d table entries", misses, entries)
	}
	if hits <= 0 {
		t.Fatalf("range_memo_hits = %d, want > 0", hits)
	}
}
