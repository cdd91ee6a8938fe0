// Engine: a pooled, cost-ordered, optionally parallel evaluator for
// Expr plans. It produces results bit-identical to the serial reference
// (Eval), but draws every decode and merge buffer from a sync.Pool-backed
// per-query arena, evaluates AND/OR children cheapest-first with an
// early exit on empty intersections, and fans independent sub-plans of
// wide nodes out to a bounded worker pool. Small plans stay on the
// serial path — the goroutine and copy overhead only pays for itself
// when there is real decode work to overlap.
package ops

import (
	"errors"
	"runtime"
	"sync"

	"repro/internal/core"
)

// EngineConfig tunes an Engine. Zero values pick serving defaults.
type EngineConfig struct {
	// Parallelism caps the number of plan sub-trees evaluated
	// concurrently, including the calling goroutine (default
	// GOMAXPROCS; 1 disables parallel evaluation).
	Parallelism int
	// ParallelMinWork is the minimum estimated node work — the sum of
	// leaf posting lengths under the node — before its sub-expressions
	// fan out to workers. Below it the node evaluates serially
	// (default 1 << 14).
	ParallelMinWork int
}

// Engine evaluates query plans with pooled scratch buffers. The zero
// value is not usable; construct with NewEngine. Engines are safe for
// concurrent use by multiple goroutines and are meant to be shared: one
// engine per process is the expected deployment.
type Engine struct {
	par     int
	minWork int
	sem     chan struct{}
}

// NewEngine returns an engine with the given configuration.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.ParallelMinWork <= 0 {
		cfg.ParallelMinWork = 1 << 14
	}
	return &Engine{
		par:     cfg.Parallelism,
		minWork: cfg.ParallelMinWork,
		// The caller counts as one worker, so par-1 extra goroutines.
		sem: make(chan struct{}, cfg.Parallelism-1),
	}
}

var (
	defaultEngineOnce sync.Once
	defaultEngine     *Engine
)

// Default returns the shared process-wide engine with default
// configuration, creating it on first use.
func Default() *Engine {
	defaultEngineOnce.Do(func() { defaultEngine = NewEngine(EngineConfig{}) })
	return defaultEngine
}

// Eval evaluates the plan like the serial Eval, returning an identical
// result set. The returned slice is freshly allocated and owned by the
// caller; all intermediate buffers return to the engine's pool.
func (ev *Engine) Eval(e Expr, postings []core.Posting) ([]uint32, error) {
	a := getArena()
	res, err := ev.eval(a, e, postings)
	if err != nil {
		putArena(a)
		return nil, err
	}
	out := make([]uint32, len(res))
	copy(out, res)
	a.put(res)
	putArena(a)
	return out, nil
}

// Intersect is Engine-pooled k-way intersection of compressed postings,
// equivalent to the package-level Intersect.
func (ev *Engine) Intersect(postings []core.Posting) ([]uint32, error) {
	return ev.Eval(flatPlan(OpAnd, len(postings)), postings)
}

// Union is Engine-pooled k-way union of compressed postings, equivalent
// to the package-level Union.
func (ev *Engine) Union(postings []core.Posting) ([]uint32, error) {
	return ev.Eval(flatPlan(OpOr, len(postings)), postings)
}

func flatPlan(op OpKind, n int) Expr {
	args := make([]Expr, n)
	for i := range args {
		args[i] = Leaf(i)
	}
	return Expr{Op: op, Args: args}
}

// costOf estimates a node's result size: a leaf's length, the minimum
// over AND children (an intersection is no bigger than its smallest
// operand), the sum over OR children. It orders siblings so the most
// selective work happens first.
func costOf(e Expr, ps []core.Posting) int {
	switch e.Op {
	case OpLeaf:
		return ps[e.Leaf].Len()
	case OpAnd:
		c := -1
		for _, ch := range e.Args {
			if cc := costOf(ch, ps); c < 0 || cc < c {
				c = cc
			}
		}
		if c < 0 {
			c = 0
		}
		return c
	default:
		c := 0
		for _, ch := range e.Args {
			c += costOf(ch, ps)
		}
		return c
	}
}

// workOf estimates the total decode work under a node: the sum of leaf
// posting lengths. It gates parallel fan-out.
func workOf(e Expr, ps []core.Posting) int {
	if e.Op == OpLeaf {
		return ps[e.Leaf].Len()
	}
	w := 0
	for _, ch := range e.Args {
		w += workOf(ch, ps)
	}
	return w
}

func (ev *Engine) eval(a *arena, e Expr, ps []core.Posting) ([]uint32, error) {
	switch e.Op {
	case OpLeaf:
		p := ps[e.Leaf]
		return core.DecompressAppend(p, a.get(p.Len())), nil
	case OpAnd:
		return ev.evalAnd(a, e, ps)
	default:
		return ev.evalOr(a, e, ps)
	}
}

// evalAnd evaluates an intersection node: sub-expressions first (cost
// ordered, optionally in parallel), then the compressed leaf operands
// probed against the running result, cheapest first, with an early exit
// as soon as the result goes empty.
func (ev *Engine) evalAnd(a *arena, e Expr, ps []core.Posting) ([]uint32, error) {
	leafBase := len(a.postings)
	for _, ch := range e.Args {
		if ch.Op == OpLeaf {
			a.postings = append(a.postings, ps[ch.Leaf])
		}
	}
	nleaf := len(a.postings) - leafBase
	if nleaf == len(e.Args) {
		cur, err := intersectInto(a, a.postings[leafBase:])
		a.postings = a.postings[:leafBase]
		return cur, err
	}

	subBase := len(a.children)
	for i, ch := range e.Args {
		if ch.Op != OpLeaf {
			a.children = append(a.children, childRef{cost: costOf(ch, ps), idx: i})
		}
	}
	nsub := len(a.children) - subBase
	sortChildrenByCost(a.children[subBase : subBase+nsub])

	var cur []uint32
	var err error
	if nsub >= 2 && ev.par > 1 && workOf(e, ps) >= ev.minWork {
		cur, err = ev.fanOut(a, e, ps, subBase, nsub, true)
	} else {
		// Serial: cheapest sub-plan first; an empty running result
		// short-circuits the remaining sub-plans entirely.
		for k := 0; k < nsub; k++ {
			if k > 0 && len(cur) == 0 {
				break
			}
			var r []uint32
			r, err = ev.eval(a, e.Args[a.children[subBase+k].idx], ps)
			if err != nil {
				break
			}
			if k == 0 {
				cur = r
			} else {
				cur = intersectAdaptiveInPlace(cur, r)
				a.put(r)
			}
		}
	}
	if err == nil {
		// Probe the compressed leaves against the running result,
		// cheapest first (the reference loop from Eval).
		sortPostingsByLen(a.postings[leafBase : leafBase+nleaf])
		for k := leafBase; k < leafBase+nleaf && len(cur) > 0; k++ {
			cur = probeAnd(a, cur, a.postings[k])
		}
	}
	a.children = a.children[:subBase]
	a.postings = a.postings[:leafBase]
	if err != nil {
		a.put(cur)
		return nil, err
	}
	return cur, nil
}

// evalOr evaluates a union node: sub-expressions (optionally parallel)
// and decoded leaves all collect into the arena's list scratch, then
// merge smallest-first pairwise, or by k-way heap when wide.
func (ev *Engine) evalOr(a *arena, e Expr, ps []core.Posting) ([]uint32, error) {
	leafBase := len(a.postings)
	nsub := 0
	for _, ch := range e.Args {
		if ch.Op == OpLeaf {
			a.postings = append(a.postings, ps[ch.Leaf])
		} else {
			nsub++
		}
	}
	nleaf := len(a.postings) - leafBase
	if nsub == 0 {
		cur, err := unionInto(a, a.postings[leafBase:])
		a.postings = a.postings[:leafBase]
		return cur, err
	}

	subBase := len(a.children)
	for i, ch := range e.Args {
		if ch.Op != OpLeaf {
			a.children = append(a.children, childRef{cost: costOf(ch, ps), idx: i})
		}
	}
	sortChildrenByCost(a.children[subBase : subBase+nsub])

	listBase := len(a.lists)
	var err error
	if nsub >= 2 && ev.par > 1 && workOf(e, ps) >= ev.minWork {
		var merged []uint32
		merged, err = ev.fanOut(a, e, ps, subBase, nsub, false)
		if err == nil {
			a.lists = append(a.lists, merged)
		}
	} else {
		for k := 0; k < nsub && err == nil; k++ {
			var r []uint32
			r, err = ev.eval(a, e.Args[a.children[subBase+k].idx], ps)
			if err == nil {
				a.lists = append(a.lists, r)
			}
		}
	}
	if err == nil {
		for k := leafBase; k < leafBase+nleaf; k++ {
			p := a.postings[k]
			a.lists = append(a.lists, core.DecompressAppend(p, a.get(p.Len())))
		}
	}
	var cur []uint32
	if err == nil {
		cur = unionManyInto(a, a.lists[listBase:])
	} else {
		for _, l := range a.lists[listBase:] {
			a.put(l)
		}
	}
	a.lists = a.lists[:listBase]
	a.children = a.children[:subBase]
	a.postings = a.postings[:leafBase]
	return cur, err
}

// fanOut evaluates the nsub sub-expressions recorded in
// a.children[subBase:] concurrently on the bounded worker pool. Workers
// that cannot take a pool slot run inline on the caller's arena, so fan
// out never blocks on itself (no nested-parallelism deadlock). Spawned
// workers use private arenas and copy their result across the arena
// boundary — that copy is the price of parallelism, which is why small
// nodes stay serial. For AND nodes (and_ true) the results combine
// smallest-first by in-place intersection with an early exit; for OR
// nodes they merge into one list for the caller to union further.
func (ev *Engine) fanOut(a *arena, e Expr, ps []core.Posting, subBase, nsub int, and bool) ([]uint32, error) {
	results := make([][]uint32, nsub)
	errs := make([]error, nsub)
	var wg sync.WaitGroup
	for k := 0; k < nsub; k++ {
		child := e.Args[a.children[subBase+k].idx]
		if ev.tryAcquire() {
			wg.Add(1)
			go func(k int, child Expr) {
				defer wg.Done()
				defer ev.release()
				ca := getArena()
				r, err := ev.eval(ca, child, ps)
				if err != nil {
					errs[k] = err
				} else {
					cp := make([]uint32, len(r))
					copy(cp, r)
					ca.put(r)
					results[k] = cp
				}
				putArena(ca)
			}(k, child)
		} else {
			results[k], errs[k] = ev.eval(a, child, ps)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, r := range results {
				a.put(r)
			}
			return nil, err
		}
	}
	sortListsByLen(results)
	if and {
		cur := results[0]
		for _, r := range results[1:] {
			if len(cur) > 0 {
				cur = intersectAdaptiveInPlace(cur, r)
			}
			a.put(r)
		}
		return cur, nil
	}
	listBase := len(a.lists)
	a.lists = append(a.lists, results...)
	cur := unionManyInto(a, a.lists[listBase:])
	a.lists = a.lists[:listBase]
	return cur, nil
}

func (ev *Engine) tryAcquire() bool {
	select {
	case ev.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (ev *Engine) release() { <-ev.sem }

// intersectInto is Intersect with arena-backed scratch: the operand
// sort uses the arena's posting stack and the initial decompression of
// the smallest operand lands in a pooled buffer instead of the heap.
// The returned slice is arena-owned (or a freshly allocated native-op
// result, which the caller may adopt with put).
func intersectInto(a *arena, postings []core.Posting) ([]uint32, error) {
	switch len(postings) {
	case 0:
		return nil, nil
	case 1:
		return core.DecompressAppend(postings[0], a.get(postings[0].Len())), nil
	}
	base := len(a.postings)
	a.postings = append(a.postings, postings...)
	sorted := a.postings[base:]
	sortPostingsByLen(sorted)
	defer func() { a.postings = a.postings[:base] }()

	var cur []uint32
	haveCur := false
	rest := sorted[1:]
	// Native compressed-form AND for the first same-codec pair.
	if inter, ok := sorted[0].(core.Intersecter); ok {
		r, err := inter.IntersectWith(sorted[1])
		switch {
		case err == nil:
			cur = r
			haveCur = true
			rest = sorted[2:]
		case errors.Is(err, core.ErrIncompatible):
			// Mixed operands: the bucket×seeker kernel below, or the
			// generic path.
		default:
			return nil, err
		}
	}
	if !haveCur {
		// Mixed-representation fast path: a bucketed bitmap against a
		// skip-pointered list intersects with neither side decompressed.
		if r, ok := mixedIntersect(a, sorted[0], sorted[1]); ok {
			cur = r
			haveCur = true
			rest = sorted[2:]
		}
	}
	if !haveCur {
		cur = core.DecompressAppend(sorted[0], a.get(sorted[0].Len()))
	}
	for _, p := range rest {
		if len(cur) == 0 {
			return cur, nil
		}
		cur = probeAnd(a, cur, p)
	}
	return cur, nil
}

// probeAnd intersects the running uncompressed result with one
// compressed operand: skip/merge probes for Seekers (in place on cur),
// the native bitmap-vs-list operator for ListProbers (adopting the
// fresh result and recycling cur), and arena-buffered
// decompress-and-merge otherwise.
func probeAnd(a *arena, cur []uint32, p core.Posting) []uint32 {
	if s, ok := p.(core.Seeker); ok {
		if p.Len() < mergeRatio*len(cur) {
			return mergeProbe(cur, s.Iterator())
		}
		return skipProbe(cur, s.Iterator())
	}
	if lp, ok := p.(core.ListProber); ok {
		out := lp.IntersectList(cur)
		a.put(cur)
		return out
	}
	tmp := core.DecompressAppend(p, a.get(p.Len()))
	cur = intersectAdaptiveInPlace(cur, tmp)
	a.put(tmp)
	return cur
}

// unionInto is Union with arena-backed scratch: decode targets and the
// merge output come from the pool. The returned slice is arena-owned.
func unionInto(a *arena, postings []core.Posting) ([]uint32, error) {
	switch len(postings) {
	case 0:
		return nil, nil
	case 1:
		return core.DecompressAppend(postings[0], a.get(postings[0].Len())), nil
	}
	listBase := len(a.lists)
	rest := postings[1:]
	if u, ok := postings[0].(core.Unioner); ok {
		r, err := u.UnionWith(postings[1])
		switch {
		case err == nil:
			if len(postings) == 2 {
				return r, nil
			}
			a.lists = append(a.lists, r)
			rest = postings[2:]
		case errors.Is(err, core.ErrIncompatible):
			// Mixed operands: generic path below.
		default:
			return nil, err
		}
	}
	if len(a.lists) == listBase {
		a.lists = append(a.lists, core.DecompressAppend(postings[0], a.get(postings[0].Len())))
	}
	for _, p := range rest {
		a.lists = append(a.lists, core.DecompressAppend(p, a.get(p.Len())))
	}
	cur := unionManyInto(a, a.lists[listBase:])
	a.lists = a.lists[:listBase]
	return cur, nil
}

// unionManyInto merges k sorted lists with UnionMany's merge strategy
// (smallest-first pairwise, k-way heap when wide), drawing outputs from
// the arena and recycling every consumed input. The lists segment and
// its buffers are consumed; the result is arena-owned.
func unionManyInto(a *arena, lists [][]uint32) []uint32 {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	if len(lists) >= heapWidth {
		return unionHeapMergeInto(a, lists)
	}
	sortListsByLen(lists)
	cur := lists[0]
	for _, l := range lists[1:] {
		out := unionSortedAppend(a.get(len(cur)+len(l)), cur, l)
		a.put(cur)
		a.put(l)
		cur = out
	}
	return cur
}

// unionHeapMergeInto is unionHeapMerge with pooled heap scratch and an
// arena-backed output buffer.
func unionHeapMergeInto(a *arena, lists [][]uint32) []uint32 {
	h := a.heads[:0]
	total := 0
	for i, l := range lists {
		total += len(l)
		if len(l) > 0 {
			h = append(h, heapHead{value: l[0], list: i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	out := a.get(total)
	for len(h) > 0 {
		top := h[0]
		if n := len(out); n == 0 || out[n-1] != top.value {
			out = append(out, top.value)
		}
		l := lists[top.list]
		if top.pos+1 < len(l) {
			h[0] = heapHead{value: l[top.pos+1], list: top.list, pos: top.pos + 1}
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	a.heads = h[:0]
	for _, l := range lists {
		a.put(l)
	}
	return out
}

// intersectSortedInPlace intersects cur with b, writing the result into
// cur's prefix — the same aliasing contract as skipProbe/mergeProbe:
// the write index never passes the read index, so cur's backing array
// doubles as the output and the input slice must be considered consumed.
func intersectSortedInPlace(cur, b []uint32) []uint32 {
	out := cur[:0]
	i, j := 0, 0
	for i < len(cur) && j < len(b) {
		switch {
		case cur[i] < b[j]:
			i++
		case cur[i] > b[j]:
			j++
		default:
			out = append(out, cur[i])
			i++
			j++
		}
	}
	return out
}

// unionSortedAppend merges a and b into dst (which must not alias
// either input) and returns the extended slice.
func unionSortedAppend(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			dst = append(dst, a[i])
			i++
		case i >= len(a) || a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// The engine sorts tiny operand sets on every evaluation; these
// insertion sorts are stable like sort.SliceStable but closure-free, so
// steady-state plan evaluation does not allocate for ordering.

func sortPostingsByLen(ps []core.Posting) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Len() < ps[j-1].Len(); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func sortListsByLen(ls [][]uint32) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && len(ls[j]) < len(ls[j-1]); j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

func sortChildrenByCost(cs []childRef) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].cost < cs[j-1].cost; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
