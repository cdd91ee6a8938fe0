package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
	"repro/internal/index"
	"repro/internal/ops"
)

// RouterConfig tunes scatter-gather behavior. Zero values pick
// serving-safe defaults.
type RouterConfig struct {
	// Hedge enables hedged requests: after an adaptive delay (the
	// shard's observed p99 completion latency, clamped to
	// [HedgeMin, HedgeMax]), a backup attempt fires on a different
	// replica and the first success cancels the loser. Off by default;
	// only effective on shards with >1 replica.
	Hedge    bool
	HedgeMin time.Duration // lower clamp on the hedge delay (default 1ms)
	HedgeMax time.Duration // upper clamp, also the cold-start delay (default 50ms)

	// ShardTimeout bounds one shard's whole scatter leg — all attempts
	// included (default 2s). A shard that exhausts it is degraded for
	// that query, not an error for the query.
	ShardTimeout time.Duration
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.HedgeMin <= 0 {
		c.HedgeMin = time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 50 * time.Millisecond
	}
	if c.HedgeMax < c.HedgeMin {
		c.HedgeMax = c.HedgeMin
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Second
	}
	return c
}

// replica is one Backend plus the load gauge pick-of-two reads.
type replica struct {
	backend  Backend
	inflight atomic.Int64
}

// shardState is the router's view of one shard: its replicas, the
// completion-latency histogram that drives the adaptive hedge delay,
// and the counters /stats exposes.
type shardState struct {
	id        int
	replicas  []*replica
	lat       hist.Histogram // per-query completion latency (first success)
	hedged    atomic.Int64   // backup attempts fired
	hedgeWins atomic.Int64   // queries where the backup finished first
	degraded  atomic.Int64   // queries this shard failed entirely
}

// pick selects a replica by load-based pick-of-two: two random distinct
// candidates, the one with fewer in-flight requests wins, ties go to
// the first random pick. Deliberately load-only, never latency-based: a
// slow-but-alive replica keeps receiving traffic (hedging is what
// rescues its tail), while a replica drowning in requests is avoided.
// not (when non-nil) excludes the replica already attempted.
func (s *shardState) pick(not *replica) *replica {
	cands := s.replicas
	if not != nil {
		cands = make([]*replica, 0, len(s.replicas)-1)
		for _, r := range s.replicas {
			if r != not {
				cands = append(cands, r)
			}
		}
	}
	switch len(cands) {
	case 0:
		return nil
	case 1:
		return cands[0]
	}
	a := cands[rand.Intn(len(cands))]
	b := cands[rand.Intn(len(cands))]
	for b == a {
		b = cands[rand.Intn(len(cands))]
	}
	if b.inflight.Load() < a.inflight.Load() {
		return b
	}
	return a
}

// hedgeDelay is the adaptive backup-fire delay: the shard's observed
// p99 completion latency, clamped. Cold start (no observations) waits
// the full HedgeMax so an idle router never opens with a hedging storm.
func (s *shardState) hedgeDelay(cfg RouterConfig) time.Duration {
	d := s.lat.Percentile(0.99)
	if d <= 0 {
		return cfg.HedgeMax
	}
	if d < cfg.HedgeMin {
		return cfg.HedgeMin
	}
	if d > cfg.HedgeMax {
		return cfg.HedgeMax
	}
	return d
}

// search runs one shard's scatter leg: primary attempt on the
// pick-of-two replica, hedged backup after the adaptive delay (or
// immediate failover if the primary fails fast), first success wins
// and cancels the loser through ctx.
func (s *shardState) search(ctx context.Context, req Request, cfg RouterConfig) (Result, error) {
	ctx, cancel := context.WithTimeout(ctx, cfg.ShardTimeout)
	defer cancel()
	start := time.Now()

	type attempt struct {
		res    Result
		err    error
		backup bool
	}
	// Buffered to the attempt cap so a losing goroutine can always
	// deliver and exit after the winner returns.
	ch := make(chan attempt, 2)
	launch := func(r *replica, backup bool) {
		r.inflight.Add(1)
		go func() {
			defer r.inflight.Add(-1)
			res, err := r.backend.Search(ctx, req)
			ch <- attempt{res: res, err: err, backup: backup}
		}()
	}
	primary := s.pick(nil)
	if primary == nil {
		return Result{}, fmt.Errorf("shard %d: no replicas", s.id)
	}
	launch(primary, false)

	var hedgeC <-chan time.Time
	if cfg.Hedge && len(s.replicas) > 1 {
		t := time.NewTimer(s.hedgeDelay(cfg))
		defer t.Stop()
		hedgeC = t.C
	}

	pending, launched := 1, 1
	var firstErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			if backup := s.pick(primary); backup != nil {
				s.hedged.Add(1)
				launch(backup, true)
				pending++
				launched++
			}
		case a := <-ch:
			pending--
			if a.err == nil {
				cancel() // the loser, if any, is abandoned
				s.lat.Record(time.Since(start))
				if a.backup {
					s.hedgeWins.Add(1)
				}
				return a.res, nil
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if pending > 0 {
				continue
			}
			// Every launched attempt failed. Fail over to an untried
			// replica if one exists (a dead primary should not cost the
			// query its hedge delay); with at most 2 attempts total the
			// failover target is simply "not the primary".
			if launched < 2 && len(s.replicas) > 1 {
				hedgeC = nil
				if next := s.pick(primary); next != nil {
					launch(next, true)
					pending++
					launched++
					continue
				}
			}
			s.degraded.Add(1)
			return Result{}, fmt.Errorf("shard %d: %w", s.id, firstErr)
		case <-ctx.Done():
			// The shard budget is gone with attempts still in flight;
			// their goroutines deliver into the buffered channel and exit
			// on their own.
			s.degraded.Add(1)
			return Result{}, fmt.Errorf("shard %d: %w", s.id, ctx.Err())
		}
	}
}

// Router fans queries out to every shard in parallel and merges the
// per-shard answers exactly. One Router is safe for concurrent use.
type Router struct {
	cfg    RouterConfig
	shards []*shardState
}

// NewRouter builds a router over replicas[shard][replica]. Every shard
// needs at least one replica.
func NewRouter(cfg RouterConfig, replicas [][]Backend) (*Router, error) {
	if len(replicas) < 1 || len(replicas) > MaxShards {
		return nil, fmt.Errorf("shard: router needs 1..%d shards, got %d", MaxShards, len(replicas))
	}
	r := &Router{cfg: cfg.withDefaults()}
	for i, reps := range replicas {
		if len(reps) == 0 {
			return nil, fmt.Errorf("shard: shard %d has no replicas", i)
		}
		st := &shardState{id: i}
		for _, b := range reps {
			st.replicas = append(st.replicas, &replica{backend: b})
		}
		r.shards = append(r.shards, st)
	}
	return r, nil
}

// Shards reports the shard count N of the partition this router serves.
func (r *Router) Shards() int { return len(r.shards) }

// Search scatters req to every shard, gathers, and merges in global
// ids. It fails only when every shard fails; any partial set of
// responses yields an answer with Partial set and the dead shards in
// Degraded — an exact answer over the shards that responded, a
// documented subset of the truth, never a wrong result.
//
// GlobalID is strictly increasing per shard and shards partition the
// documents, so the per-shard lists are ascending and disjoint: their
// union is the single-index posting list, and per-shard top-k lists
// (k pushed down, local-docid tie-breaks) merge under strict-beat order
// into the single-index ranking bit for bit.
func (r *Router) Search(ctx context.Context, req Request) (index.Answer, error) {
	if err := req.Validate(); err != nil {
		return index.Answer{}, err
	}
	if err := ctx.Err(); err != nil {
		return index.Answer{}, err
	}
	n := len(r.shards)
	results := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, st := range r.shards {
		wg.Add(1)
		go func(i int, st *shardState) {
			defer wg.Done()
			results[i], errs[i] = st.search(ctx, req, r.cfg)
		}(i, st)
	}
	wg.Wait()

	var (
		m      index.Answer
		docs   = make([][]uint32, 0, n)
		ranked = make([][]index.Result, 0, n)
	)
	for s, res := range results {
		if errs[s] != nil {
			m.Partial = true
			m.Degraded = append(m.Degraded, s)
			continue
		}
		for i, d := range res.Docs {
			res.Docs[i] = GlobalID(d, s, n)
		}
		for i := range res.Ranked {
			res.Ranked[i].Doc = GlobalID(res.Ranked[i].Doc, s, n)
		}
		docs, ranked = append(docs, res.Docs), append(ranked, res.Ranked)
	}
	if len(m.Degraded) == n {
		return index.Answer{}, fmt.Errorf("shard: all %d shards failed: %w", n, errs[0])
	}
	if req.Mode == "topk" {
		m.Ranked = ops.MergeTopK(req.K, ranked)
	} else {
		m.Docs = ops.UnionMany(docs)
	}
	return m, nil
}

// ReplicaStats is one replica's load gauge, for /stats.
type ReplicaStats struct {
	Name     string `json:"name"`
	InFlight int64  `json:"inFlight"`
}

// ShardStats is one shard's /stats row: completion-latency percentiles,
// hedge counters, degraded count, and the hedge delay the next query
// would use.
type ShardStats struct {
	Shard        int            `json:"shard"`
	Replicas     []ReplicaStats `json:"replicas"`
	Latency      hist.Summary   `json:"latency"`
	Hedged       int64          `json:"hedged"`
	HedgeWins    int64          `json:"hedgeWins"`
	Degraded     int64          `json:"degraded"`
	HedgeDelayMS float64        `json:"hedgeDelayMs"`
}

// Stats snapshots every shard's counters.
func (r *Router) Stats() []ShardStats {
	out := make([]ShardStats, 0, len(r.shards))
	for _, st := range r.shards {
		ss := ShardStats{
			Shard:        st.id,
			Latency:      st.lat.Summarize(),
			Hedged:       st.hedged.Load(),
			HedgeWins:    st.hedgeWins.Load(),
			Degraded:     st.degraded.Load(),
			HedgeDelayMS: float64(st.hedgeDelay(r.cfg)) / float64(time.Millisecond),
		}
		for _, rep := range st.replicas {
			ss.Replicas = append(ss.Replicas, ReplicaStats{Name: rep.backend.Name(), InFlight: rep.inflight.Load()})
		}
		out = append(out, ss)
	}
	return out
}

// Health probes every replica of every shard in parallel and returns
// the ids of shards with no healthy replica. An empty slice means the
// full partition is answerable.
func (r *Router) Health(ctx context.Context) []int {
	downCh := make(chan int, len(r.shards))
	var wg sync.WaitGroup
	for _, st := range r.shards {
		wg.Add(1)
		go func(st *shardState) {
			defer wg.Done()
			for _, rep := range st.replicas {
				if rep.backend.Health(ctx) == nil {
					return
				}
			}
			downCh <- st.id
		}(st)
	}
	wg.Wait()
	close(downCh)
	down := []int{}
	for id := range downCh {
		down = append(down, id)
	}
	sortInts(down)
	return down
}

// sortInts is a tiny insertion sort for the short shard-id slices
// Health returns (avoids pulling in sort for one call site).
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
