// Hybrid-index benchmark matrix: the adaptive advisor's per-list codec
// pick against every candidate codec across the paper's density ×
// distribution grid, plus engine-vs-reference speedup cells for the
// two new intersection kernels (galloping SvS over skip frames, mixed
// bucket×seeker). RunHybrid both measures and gates:
//
//   - grid gate: no candidate codec may Pareto-dominate the advisor's
//     pick beyond noise — strictly better on space AND every op time at
//     once. The advisor trades space against speed by decision class
//     (DESIGN §8), so losing one metric to one codec is expected; losing
//     all of them means the decision table picked a strictly worse
//     codec for that cell.
//   - speedup gate: at least one cell where the engine's mixed/galloping
//     path beats the decompress-and-merge reference (every leaf fully
//     decompressed, linear merges — the paper's baseline strategy and
//     the engine's behavior before skip probes and the mixed kernel)
//     by >= MinSpeedup.
//
// `make bench` runs the full matrix and writes results/BENCH_hybrid.json;
// the quick matrix runs in the ordinary test suite.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ops"
)

// hybridCandidates are the advisor's four decision-class codecs
// (core.AdviseList): every pick lands on one of these.
var hybridCandidates = []string{"Roaring", "Roaring+Run", "SIMDBP128*", "SIMDPforDelta*"}

// HybridConfig scales the matrix.
type HybridConfig struct {
	Domain    uint32    // synthetic-data domain d
	Densities []float64 // list densities n/d (paper grid: 1e-4 .. 0.3)
	Dists     []string  // distributions (uniform, zipf, markov)
	Trials    int       // timed repetitions (best is kept)
	SizeTol   float64   // fractional space slack before "dominated"
	TimeTol   float64   // fractional time slack before "dominated"
	// Speedup-cell shape: the large side of the skewed pairs and the
	// small:large ratio (the issue's 1:10^4 end of the sweep).
	SkewLarge  int
	SkewRatio  int
	MinSpeedup float64
}

// DefaultHybrid is the committed-results configuration (~seconds).
func DefaultHybrid() HybridConfig {
	return HybridConfig{
		Domain:     1 << 20,
		Densities:  []float64{1e-4, 1e-3, 1e-2, 0.1, 0.3},
		Dists:      []string{"uniform", "zipf", "markov"},
		Trials:     5,
		SizeTol:    0.02,
		TimeTol:    0.35,
		SkewLarge:  1 << 21,
		SkewRatio:  10000,
		MinSpeedup: 1.5,
	}
}

// QuickHybrid shrinks the matrix for the ordinary test suite while
// keeping every decision class and both speedup kernels reachable.
func QuickHybrid() HybridConfig {
	c := DefaultHybrid()
	c.Domain = 1 << 17
	c.Densities = []float64{1e-3, 0.05, 0.3}
	c.Trials = 3
	c.SkewLarge = 1 << 17
	c.SkewRatio = 1000
	return c
}

// HybridMetric is one measured (codec, cell) row.
type HybridMetric struct {
	SpaceBytes   int     `json:"space_bytes"`
	DecompressMS float64 `json:"decompress_ms"`
	AndMS        float64 `json:"and_ms"`
	OrMS         float64 `json:"or_ms"`
}

// HybridCell is one grid cell: the advisor's pick vs all candidates.
type HybridCell struct {
	Dist        string                  `json:"dist"`
	Density     float64                 `json:"density"`
	N           int                     `json:"n"`
	Pick        string                  `json:"pick"`
	PickReason  string                  `json:"pick_reason"`
	Hybrid      HybridMetric            `json:"hybrid"`
	Candidates  map[string]HybridMetric `json:"candidates"`
	DominatedBy []string                `json:"dominated_by,omitempty"`
}

// SpeedupCell is one engine-vs-reference row: the decompress-and-merge
// reference against the pooled engine's kernel path on the same
// postings and plan.
type SpeedupCell struct {
	Name       string  `json:"name"`
	Detail     string  `json:"detail"`
	BaselineMS float64 `json:"baseline_ms"`
	EngineMS   float64 `json:"engine_ms"`
	Speedup    float64 `json:"speedup"`
}

// HybridReport is the gated result of a full matrix run.
type HybridReport struct {
	Domain     uint32        `json:"domain"`
	Trials     int           `json:"trials"`
	Cells      []HybridCell  `json:"cells"`
	Speedups   []SpeedupCell `json:"speedups"`
	MaxSpeedup float64       `json:"max_speedup"`
	Pass       bool          `json:"pass"`
	Failures   []string      `json:"failures,omitempty"`
}

// timePerOp reports the best-of-trials per-call wall time of f in ms,
// batching reps calls per trial so sub-microsecond ops don't drown in
// timer noise.
func timePerOp(trials, reps int, f func()) float64 {
	if reps < 1 {
		reps = 1
	}
	best := 0.0
	for t := 0; t < trials || t == 0; t++ {
		if el := timeBatch(reps, f); t == 0 || el < best {
			best = el
		}
	}
	return best
}

// timeBatch reports the per-call wall time of f in ms over one batch of
// reps calls.
func timeBatch(reps int, f func()) float64 {
	start := time.Now()
	for r := 0; r < reps; r++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6 / float64(reps)
}

// hybridReps sizes the batching loop so each timed trial does on the
// order of a few hundred thousand decoded values of work.
func hybridReps(n int) int {
	if n <= 0 {
		return 256
	}
	r := 1 << 18 / n
	if r < 1 {
		return 1
	}
	return r
}

// measureHybridPairs compresses (a, b) under each pair of codec names
// and measures decompress/AND/OR through the pooled engine. The pairs
// are timed interleaved: one untimed warm-up batch of every op, then
// trial t of every pair before trial t+1 of any, so a cold start or a
// host slowdown lands on all of them alike rather than on whichever
// pair was being measured at the time, and every timed batch starts
// right after a collection, so none pays for garbage another left
// behind. Timed back to back without either, a cell's first pair (the
// advisor's pick) reads up to 3× slower than the identical codec pair
// timed after it, and noise alone crosses TimeTol.
func measureHybridPairs(trials int, pairs [][2]string, a, b []uint32) ([]HybridMetric, error) {
	eng := ops.Default()
	reps := hybridReps(len(a) + len(b))
	var sink []uint32
	var evalErr error
	ms := make([]HybridMetric, len(pairs))
	runs := make([][3]func(), len(pairs)) // decompress, AND, OR
	for i, p := range pairs {
		ps, err := compressNamed(p[:], [][]uint32{a, b})
		if err != nil {
			return nil, err
		}
		ms[i].SpaceBytes = sizeOf(ps)
		runs[i] = [3]func(){
			func() {
				sink = ps[0].Decompress()
				sink = ps[1].Decompress()
			},
			func() { sink, evalErr = eng.Eval(ops.And(ops.Leaf(0), ops.Leaf(1)), ps) },
			func() { sink, evalErr = eng.Eval(ops.Or(ops.Leaf(0), ops.Leaf(1)), ps) },
		}
	}
	best := make([][3]float64, len(pairs))
	for t := -1; t < trials || t == 0; t++ { // t == -1 is the warm-up
		for i := range runs {
			for op, f := range runs[i] {
				runtime.GC()
				el := timeBatch(reps, f)
				if t == 0 || (t > 0 && el < best[i][op]) {
					best[i][op] = el
				}
			}
			if evalErr != nil {
				return nil, fmt.Errorf("%s×%s: %w", pairs[i][0], pairs[i][1], evalErr)
			}
		}
	}
	runtime.KeepAlive(sink)
	for i := range ms {
		ms[i].DecompressMS, ms[i].AndMS, ms[i].OrMS = best[i][0], best[i][1], best[i][2]
	}
	return ms, nil
}

// dominates reports whether candidate c beats h on space AND every op
// beyond the configured noise slack.
func dominates(cfg HybridConfig, c, h HybridMetric) bool {
	return float64(c.SpaceBytes) < float64(h.SpaceBytes)*(1-cfg.SizeTol) &&
		c.DecompressMS < h.DecompressMS*(1-cfg.TimeTol) &&
		c.AndMS < h.AndMS*(1-cfg.TimeTol) &&
		c.OrMS < h.OrMS*(1-cfg.TimeTol)
}

// refEval is the decompress-and-merge reference: every leaf fully
// materialized, inner nodes combined by linear merges. No skip
// pointers, no bucket probes, no galloping — the strategy the engine
// used for cross-representation pairs before the adaptive kernels.
func refEval(e ops.Expr, ps []core.Posting) []uint32 {
	switch e.Op {
	case ops.OpLeaf:
		return ps[e.Leaf].Decompress()
	case ops.OpAnd:
		var cur []uint32
		for i, a := range e.Args {
			r := refEval(a, ps)
			if i == 0 {
				cur = r
			} else {
				cur = ops.IntersectSorted(cur, r)
			}
		}
		return cur
	default: // OpOr
		parts := make([][]uint32, len(e.Args))
		for i, a := range e.Args {
			parts[i] = refEval(a, ps)
		}
		return ops.UnionMany(parts)
	}
}

// speedupCell times one plan under the decompress-and-merge reference
// and the pooled engine.
func speedupCell(trials int, name, detail string, plan ops.Expr, ps []core.Posting, reps int) (SpeedupCell, error) {
	var evalErr error
	var sink []uint32
	base := timePerOp(trials, reps, func() {
		sink = refEval(plan, ps)
	})
	eng := ops.Default()
	engMS := timePerOp(trials, reps, func() {
		sink, evalErr = eng.Eval(plan, ps)
	})
	if evalErr != nil {
		return SpeedupCell{}, fmt.Errorf("%s engine: %w", name, evalErr)
	}
	runtime.KeepAlive(sink)
	sp := 0.0
	if engMS > 0 {
		sp = base / engMS
	}
	return SpeedupCell{Name: name, Detail: detail, BaselineMS: base, EngineMS: engMS, Speedup: sp}, nil
}

// compressNamed compresses each list with the codec name at the same index.
func compressNamed(names []string, lists [][]uint32) ([]core.Posting, error) {
	ps := make([]core.Posting, len(lists))
	for i, l := range lists {
		c, err := codecs.ByName(names[i])
		if err != nil {
			return nil, err
		}
		if ps[i], err = c.Compress(l); err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
	}
	return ps, nil
}

// RunHybrid runs the full matrix and applies both gates.
func RunHybrid(cfg HybridConfig) (*HybridReport, error) {
	rep := &HybridReport{Domain: cfg.Domain, Trials: cfg.Trials, Pass: true}

	for _, dist := range cfg.Dists {
		for _, d := range cfg.Densities {
			n := int(d * float64(cfg.Domain))
			if n < 4 {
				n = 4
			}
			a := synthetic(dist, n, cfg.Domain, int64(77+len(rep.Cells)))
			b := synthetic(dist, n, cfg.Domain, int64(178+len(rep.Cells)))
			recA := core.AdviseList(core.ComputeStats(a, uint64(cfg.Domain)))
			recB := core.AdviseList(core.ComputeStats(b, uint64(cfg.Domain)))
			cell := HybridCell{
				Dist: dist, Density: d, N: len(a),
				Pick: recA.Codec, PickReason: recA.Reason,
				Candidates: map[string]HybridMetric{},
			}
			pairs := [][2]string{{recA.Codec, recB.Codec}}
			for _, cand := range hybridCandidates {
				pairs = append(pairs, [2]string{cand, cand})
			}
			ms, err := measureHybridPairs(cfg.Trials, pairs, a, b)
			if err != nil {
				return nil, fmt.Errorf("%s/%g: %w", dist, d, err)
			}
			cell.Hybrid = ms[0]
			for i, cand := range hybridCandidates {
				m := ms[i+1]
				cell.Candidates[cand] = m
				if dominates(cfg, m, cell.Hybrid) {
					cell.DominatedBy = append(cell.DominatedBy, cand)
				}
			}
			if len(cell.DominatedBy) > 0 {
				rep.Pass = false
				rep.Failures = append(rep.Failures, fmt.Sprintf(
					"%s/density=%g: advisor pick %s is Pareto-dominated by %v",
					dist, d, cell.Pick, cell.DominatedBy))
			}
			rep.Cells = append(rep.Cells, cell)
		}
	}

	if err := runSpeedups(cfg, rep); err != nil {
		return nil, err
	}
	for _, s := range rep.Speedups {
		if s.Speedup > rep.MaxSpeedup {
			rep.MaxSpeedup = s.Speedup
		}
	}
	if rep.MaxSpeedup < cfg.MinSpeedup {
		rep.Pass = false
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"no speedup cell reached %.2fx (max %.2fx): mixed/galloping kernels regressed",
			cfg.MinSpeedup, rep.MaxSpeedup))
	}
	return rep, nil
}

// runSpeedups appends the three engine-vs-reference cells: galloping
// SvS over skip frames (skewed list×list), the mixed bucket×seeker
// kernel (dense bitmap × sparse list), and a skewed AND-of-unions plan.
func runSpeedups(cfg HybridConfig, rep *HybridReport) error {
	domain := uint32(4 * cfg.SkewLarge)
	large := gen.Uniform(cfg.SkewLarge, domain, 301)
	nSmall := cfg.SkewLarge / cfg.SkewRatio
	if nSmall < 8 {
		nSmall = 8
	}
	small := gen.Uniform(nSmall, domain, 302)

	// Galloping SvS: the small side decodes, the large side is only
	// touched through its skip frames — the reference decodes both.
	ps, err := compressNamed([]string{"VB", "SIMDBP128*"}, [][]uint32{small, large})
	if err != nil {
		return err
	}
	cell, err := speedupCell(cfg.Trials, "galloping-svs",
		fmt.Sprintf("AND of %d×%d lists (1:%d skew), VB × SIMDBP128*", len(small), len(large), cfg.SkewRatio),
		ops.And(ops.Leaf(0), ops.Leaf(1)), ps, 4)
	if err != nil {
		return err
	}
	rep.Speedups = append(rep.Speedups, cell)

	// Mixed bucket×seeker: dense bitmap probed by a sparse list with
	// neither side decompressed.
	dense := synthetic("markov", int(0.3*float64(cfg.Domain)), cfg.Domain, 303)
	sparse := gen.Uniform(256, cfg.Domain, 304)
	ps, err = compressNamed([]string{"Roaring", "SIMDBP128*"}, [][]uint32{dense, sparse})
	if err != nil {
		return err
	}
	cell, err = speedupCell(cfg.Trials, "mixed-bitmap-list",
		fmt.Sprintf("AND of %d-value Roaring bitmap × %d-value SIMDBP128* list", len(dense), len(sparse)),
		ops.And(ops.Leaf(0), ops.Leaf(1)), ps, 4)
	if err != nil {
		return err
	}
	rep.Speedups = append(rep.Speedups, cell)

	// Skewed AND-of-unions: the engine unions each side, then the
	// galloping crossover handles the skewed intersection of the
	// materialized unions.
	lists := [][]uint32{
		gen.Uniform(nSmall, domain, 305),
		gen.Uniform(nSmall, domain, 306),
		gen.Uniform(cfg.SkewLarge/2, domain, 307),
		gen.Uniform(cfg.SkewLarge/2, domain, 308),
	}
	ps, err = compressNamed([]string{"SIMDBP128*", "SIMDBP128*", "SIMDBP128*", "SIMDBP128*"}, lists)
	if err != nil {
		return err
	}
	cell, err = speedupCell(cfg.Trials, "and-of-unions",
		fmt.Sprintf("AND(OR(%d,%d), OR(%d,%d)) — plan-level skew", len(lists[0]), len(lists[1]), len(lists[2]), len(lists[3])),
		ops.And(ops.Or(ops.Leaf(0), ops.Leaf(1)), ops.Or(ops.Leaf(2), ops.Leaf(3))), ps, 4)
	if err != nil {
		return err
	}
	rep.Speedups = append(rep.Speedups, cell)
	return nil
}
