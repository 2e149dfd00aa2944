package atpg

import (
	"context"
	"log/slog"
	"math/bits"
	"math/rand"

	"fastmon/internal/cache"
	"fastmon/internal/chaos"
	"fastmon/internal/circuit"
	"fastmon/internal/fault"
	"fastmon/internal/fmerr"
	"fastmon/internal/logic"
	"fastmon/internal/obs"
	"fastmon/internal/sim"
)

// Chaos injection points at the phase boundaries of test generation,
// aligned with the cancellation polls.
var (
	ptRandom = chaos.Register("atpg.random", fmerr.StageATPG)
	ptPodem  = chaos.Register("atpg.podem", fmerr.StageATPG)
)

// Config controls test generation.
type Config struct {
	// RandomBatches is the number of 64-pattern random blocks tried before
	// deterministic generation (four consecutive useless blocks also end
	// the phase early).
	RandomBatches int
	// MaxBacktracks bounds each PODEM/justification run.
	MaxBacktracks int
	// Seed drives random patterns and don't-care fill.
	Seed int64
	// Compact enables reverse-order static compaction.
	Compact bool
	// Workers is kept only for source compatibility and excluded from
	// the cache key.
	//
	// Deprecated: ignored; ATPG is single-threaded.
	Workers int
}

// DefaultConfig returns the configuration used by the experiment harness.
func DefaultConfig(seed int64) Config {
	return Config{RandomBatches: 48, MaxBacktracks: 600, Seed: seed, Compact: true}
}

// Stats summarizes one generation run.
type Stats struct {
	Faults         int // faults targeted
	Detected       int // faults with a test in the final set
	Untestable     int // proven untestable (no pattern pair exists)
	Aborted        int // backtrack limit exceeded
	RandomDetected int // faults covered by the random phase
	RawPatterns    int // patterns before compaction
	Patterns       int // final pattern count
	Backtracks     int // PODEM + justification decision flips (effort)
}

// Coverage returns detected / testable (the ATPG "test coverage" metric).
func (s Stats) Coverage() float64 {
	testable := s.Faults - s.Untestable
	if testable <= 0 {
		return 1
	}
	return float64(s.Detected) / float64(testable)
}

// Generate produces a compacted transition-fault test set for the given
// fault list. Faults are interpreted as transition faults at the
// small-delay fault sites (slow-to-rise/slow-to-fall polarity preserved).
//
// The context is polled between random batches and between deterministic
// PODEM targets; cancellation returns the patterns generated so far
// together with a stage-attributed error.
func Generate(ctx context.Context, c *circuit.Circuit, faults []fault.Fault, cfg Config) ([]sim.Pattern, Stats, error) {
	if cfg.RandomBatches == 0 && cfg.MaxBacktracks == 0 {
		cfg = DefaultConfig(cfg.Seed)
	}
	if store := cache.From(ctx); store != nil {
		v, err := cache.Memo(ctx, store, cacheKey(c, faults, cfg),
			func(ctx context.Context) (cached, error) {
				pats, st, err := generate(ctx, c, faults, cfg)
				return cached{Patterns: pats, Stats: st}, err
			})
		return v.Patterns, v.Stats, err
	}
	return generate(ctx, c, faults, cfg)
}

// cached is the atpg entry layout of the result cache.
type cached struct {
	Patterns []sim.Pattern
	Stats    Stats
}

// cacheKey fingerprints everything Generate's output depends on: the
// canonical netlist, the source ordering the pattern vectors are indexed
// by, the exact target fault list (by gate name, so the component composes
// with the order-invariant netlist fingerprint), and the generator config.
// The deprecated Config.Workers is absent: it does not affect the output.
func cacheKey(c *circuit.Circuit, faults []fault.Fault, cfg Config) cache.Key {
	h := cache.NewHasher("atpg")
	h.Str("circuit", cache.CircuitFingerprint(c))
	for _, id := range c.Sources() {
		h.Str("src", c.Gates[id].Name)
	}
	h.Int("faults", int64(len(faults)))
	for _, f := range faults {
		h.Str("f.gate", c.Gates[f.Gate].Name)
		h.Int("f.pin", int64(f.Pin))
		h.Bool("f.rising", f.Rising)
	}
	h.Int("random_batches", int64(cfg.RandomBatches))
	h.Int("max_backtracks", int64(cfg.MaxBacktracks))
	h.Int("seed", cfg.Seed)
	h.Bool("compact", cfg.Compact)
	return h.Key()
}

// generate is the uncached body of Generate.
func generate(ctx context.Context, c *circuit.Circuit, faults []fault.Fault, cfg Config) ([]sim.Pattern, Stats, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nsrc := len(c.Sources())
	st := Stats{Faults: len(faults)}
	// gateEvals sums the implication work of both PODEM machines. It stays
	// out of Stats to keep the cached entry layout unchanged.
	var gateEvals int64
	_, span := obs.StartSpan(ctx, "atpg")
	defer func() {
		o := obs.From(ctx)
		o.Counter("atpg.patterns").Add(int64(st.Patterns))
		o.Counter("atpg.raw_patterns").Add(int64(st.RawPatterns))
		o.Counter("atpg.backtracks").Add(int64(st.Backtracks))
		o.Counter("atpg.aborted").Add(int64(st.Aborted))
		o.Counter("atpg.untestable").Add(int64(st.Untestable))
		o.Counter("atpg.random_detected").Add(int64(st.RandomDetected))
		o.Counter("atpg.gate_evals").Add(gateEvals)
		span.End(
			slog.Int("faults", st.Faults),
			slog.Int("patterns", st.Patterns),
			slog.Int("backtracks", st.Backtracks),
			slog.Int("aborted", st.Aborted),
			slog.Int64("gate_evals", gateEvals))
	}()

	detected := make([]bool, len(faults))
	var patterns []sim.Pattern

	// dropPass removes faults detected by patterns[from:] from the
	// remaining set, reusing one Batch's packed-vector scratch across
	// 64-pattern chunks.
	var db logic.Batch
	dropPass := func(from int) {
		for start := from; start < len(patterns); start += 64 {
			db.Load(c, patterns, start)
			for fi := range faults {
				if detected[fi] {
					continue
				}
				if db.DetectTransition(faults[fi]) != 0 {
					detected[fi] = true
				}
			}
		}
	}

	// Random phase. The 64-pattern block buffers are reused across batches;
	// only the (rare) patterns promoted into the output set get fresh
	// backing arrays.
	blk := make([]sim.Pattern, 64)
	for i := range blk {
		blk[i] = sim.Pattern{V1: make([]bool, nsrc), V2: make([]bool, nsrc)}
	}
	misses := 0
	for batch := 0; batch < cfg.RandomBatches && misses < 4; batch++ {
		if err := ctx.Err(); err != nil {
			return patterns, st, fmerr.Wrap(fmerr.StageATPG, "random-phase", err)
		}
		if err := chaos.Point(ctx, ptRandom); err != nil {
			return patterns, st, fmerr.Wrap(fmerr.StageATPG, "random-phase", err)
		}
		for i := range blk {
			for j := 0; j < nsrc; j++ {
				blk[i].V1[j] = rng.Intn(2) == 1
				blk[i].V2[j] = rng.Intn(2) == 1
			}
		}
		db.Load(c, blk, 0)
		useful := make(map[int][]int) // pattern index -> fault indices
		for fi := range faults {
			if detected[fi] {
				continue
			}
			det := db.DetectTransition(faults[fi])
			if det == 0 {
				continue
			}
			k := bits.TrailingZeros64(det)
			useful[k] = append(useful[k], fi)
		}
		if len(useful) == 0 {
			misses++
			continue
		}
		misses = 0
		for k := 0; k < 64; k++ {
			fis, ok := useful[k]
			if !ok {
				continue
			}
			patterns = append(patterns, blk[k])
			blk[k] = sim.Pattern{V1: make([]bool, nsrc), V2: make([]bool, nsrc)}
			for _, fi := range fis {
				detected[fi] = true
				st.RandomDetected++
			}
		}
	}

	// Deterministic phase: for each still-undetected fault in index order,
	// PODEM finds the launch vector V2 on m, then jm justifies the
	// pre-transition site value for V1 while m still holds its assignment.
	// Both machines are allocated once and retargeted per fault.
	an := newAnalysis(c)
	m, jm := newMachine(an), newMachine(an)
	lastDrop := len(patterns)
	for fi, f := range faults {
		if fi&63 == 0 {
			if err := ctx.Err(); err != nil {
				return patterns, st, fmerr.Wrap(fmerr.StageATPG, "deterministic-phase", err)
			}
			if err := chaos.Point(ctx, ptPodem); err != nil {
				return patterns, st, fmerr.Wrap(fmerr.StageATPG, "deterministic-phase", err)
			}
		}
		if detected[fi] {
			continue
		}
		stuck := v0
		if !f.Rising {
			stuck = v1
		}
		m.reset(f, stuck)
		res := m.run(cfg.MaxBacktracks)
		st.Backtracks += m.backtracks
		gateEvals += m.evals
		if res == testFound {
			site := m.siteNet()
			jm.reset(fault.Fault{Gate: site, Pin: -1}, stuck.not())
			var jBt int
			jBt, res = jm.justify(site, stuck, cfg.MaxBacktracks)
			st.Backtracks += jBt
			gateEvals += jm.evals
		}
		switch res {
		case untestable:
			// Either no V2 exists, or the site cannot take the
			// pre-transition value at all.
			st.Untestable++
			continue
		case aborted:
			st.Aborted++
			continue
		}
		fr := newFillRNG(cfg.Seed, fi)
		patterns = append(patterns, sim.Pattern{V1: fill(jm.assign, &fr), V2: fill(m.assign, &fr)})
		detected[fi] = true
		if len(patterns)-lastDrop >= 32 {
			dropPass(lastDrop)
			lastDrop = len(patterns)
		}
	}
	dropPass(lastDrop)

	st.RawPatterns = len(patterns)
	if cfg.Compact {
		patterns = compact(c, patterns, faults, detected)
	}
	st.Patterns = len(patterns)
	for _, d := range detected {
		if d {
			st.Detected++
		}
	}
	return patterns, st, nil
}

// compact performs reverse-order static compaction: patterns are
// re-simulated newest-first and a pattern is kept only if it is the first
// (in reverse order) to detect some fault. Coverage is preserved exactly.
func compact(c *circuit.Circuit, patterns []sim.Pattern, faults []fault.Fault, detected []bool) []sim.Pattern {
	if len(patterns) == 0 {
		return patterns
	}
	rev := make([]sim.Pattern, len(patterns))
	for i, p := range patterns {
		rev[len(patterns)-1-i] = p
	}
	keepRev := make([]bool, len(rev))
	remaining := make([]bool, len(faults))
	nRemaining := 0
	for fi := range faults {
		if detected[fi] {
			remaining[fi] = true
			nRemaining++
		}
	}
	var b logic.Batch
	for start := 0; start < len(rev) && nRemaining > 0; start += 64 {
		b.Load(c, rev, start)
		for fi := range faults {
			if !remaining[fi] {
				continue
			}
			det := b.DetectTransition(faults[fi])
			if det == 0 {
				continue
			}
			k := bits.TrailingZeros64(det)
			keepRev[start+k] = true
			remaining[fi] = false
			nRemaining--
		}
	}
	var out []sim.Pattern
	for i := len(rev) - 1; i >= 0; i-- {
		if keepRev[i] {
			out = append(out, rev[i])
		}
	}
	return out
}

// Verify recomputes the set of fault indices detected by the pattern set
// (used by tests and the experiment harness to validate coverage claims).
func Verify(c *circuit.Circuit, patterns []sim.Pattern, faults []fault.Fault) []bool {
	detected := make([]bool, len(faults))
	var b logic.Batch
	for start := 0; start < len(patterns); start += 64 {
		b.Load(c, patterns, start)
		for fi := range faults {
			if detected[fi] {
				continue
			}
			if b.DetectTransition(faults[fi]) != 0 {
				detected[fi] = true
			}
		}
	}
	return detected
}
