package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/ops"
	"repro/internal/server"
	"repro/internal/shard"
)

// The traced run replays a workload's inputs and times calls into each
// layer's public entry points from this file; the program itself
// records nothing. The outer span of every request is the same HTTP
// round trip to the same binaries as the end-to-end run. Inner spans
// come from in-process replicas opened on the same files, each call
// made on its own after the round trip, so a layer's self time is its
// span minus its child's span for the same request.

// span is one timed call at a layer boundary.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's outer span
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Attr   string `json:"attr,omitempty"` // codec family, shard, ...
}

// tracer keeps spans in memory and per-metric samples beside them.
type tracer struct {
	t0      time.Time
	spans   []span
	samples map[string][]float64
	counts  map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}, counts: map[string]float64{}}
}

// record adds a span and returns its id.
func (t *tracer) record(req, parent int, layer, attr string, start, end time.Time) int {
	t.spans = append(t.spans, span{Req: req, ID: len(t.spans), Parent: parent, Layer: layer, Attr: attr,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) sample(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer lists the per-layer metrics in report order with units.
var perLayer = []struct{ name, unit string }{
	{"server.self_p50_us", "us"}, {"server.self_p99_us", "us"},
	{"server.resp_bytes_per_req", "bytes"}, {"server.sheds", "count"},
	{"wire.self_p50_us", "us"}, {"wire.client_decode_p50_us", "us"},
	{"index.lookup_p50_us", "us"},
	{"index.and_p50_us", "us"}, {"index.and_p99_us", "us"},
	{"index.or_p50_us", "us"}, {"index.or_p99_us", "us"},
	{"index.topk_p50_us", "us"}, {"index.topk_p99_us", "us"},
	{"index.cache_hit_ratio", "ratio"}, {"index.cache_mb", "MiB"},
	{"codecs.decode_ns_per_posting.bitmap", "ns"}, {"codecs.decode_ns_per_posting.list", "ns"},
	{"codecs.postings_decoded_per_query", "count"},
	{"ops.intersect_p50_us", "us"}, {"ops.union_p50_us", "us"}, {"ops.results_per_query", "count"},
	{"ops.topk_blocks_decoded_ratio", "ratio"}, {"ops.topk_docs_scored_per_query", "count"},
	{"live.add_p50_us", "us"}, {"live.add_p99_us", "us"},
	{"live.query_p50_us.idle", "us"}, {"live.query_p99_us.idle", "us"},
	{"live.query_p50_us.ingest", "us"}, {"live.query_p99_us.ingest", "us"},
	{"live.seals", "count"}, {"live.compactions", "count"}, {"live.segments_max", "count"},
	{"live.seal_ms", "ms"}, {"live.compact_ms", "ms"},
	{"wal.fsyncs_per_ack", "ratio"}, {"wal.fsync_p50_us", "us"}, {"wal.fsync_p99_us", "us"},
	{"device.bytes_written_per_user_byte", "ratio"},
	{"shard.router_p50_us", "us"}, {"shard.router_p99_us", "us"},
	{"shard.leg_max_p50_us", "us"}, {"shard.merge_self_p50_us", "us"},
	{"shard.hop_self_p50_us", "us"}, {"shard.leg_skew_p99", "ratio"}, {"shard.degraded", "count"},
	{"loadgen.lag_p99_ms", "ms"}, {"loadgen.lag_max_ms", "ms"}, {"trace.overhead_ratio", "ratio"},
	{"share.responses_over_10k_docs", "fraction"}, {"share.topk_queries", "fraction"},
	{"share.postings_from_list_codecs", "fraction"}, {"share.reads_overlapping_flush", "fraction"},
}

// layerMetric turns the recorded samples into one per-layer value: a
// percentile of a sample set, a mean, or a count. Layers the workload
// does not exercise have no samples and report 0.
func (t *tracer) layerMetric(name string) float64 {
	pct := func(key string, q float64) float64 { return quantile(t.samples[key], q) }
	mean := func(key string) float64 {
		xs := t.samples[key]
		if len(xs) == 0 {
			return 0
		}
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	ratio := func(num, den string) float64 {
		if t.counts[den] == 0 {
			return 0
		}
		return t.counts[num] / t.counts[den]
	}
	switch name {
	case "server.self_p50_us":
		return pct("server.self", 0.5)
	case "server.self_p99_us":
		return pct("server.self", 0.99)
	case "server.resp_bytes_per_req":
		return mean("server.resp_bytes")
	case "wire.self_p50_us":
		return pct("wire.self", 0.5)
	case "wire.client_decode_p50_us":
		return pct("wire.client_decode", 0.5)
	case "index.lookup_p50_us":
		return pct("index.lookup", 0.5)
	case "index.and_p50_us", "index.or_p50_us", "index.topk_p50_us", "shard.router_p50_us",
		"ops.intersect_p50_us", "ops.union_p50_us", "shard.leg_max_p50_us", "shard.merge_self_p50_us",
		"shard.hop_self_p50_us", "live.add_p50_us", "wal.fsync_p50_us":
		return pct(strings.TrimSuffix(name, "_p50_us"), 0.5)
	case "index.and_p99_us", "index.or_p99_us", "index.topk_p99_us", "shard.router_p99_us",
		"live.add_p99_us", "wal.fsync_p99_us":
		return pct(strings.TrimSuffix(name, "_p99_us"), 0.99)
	case "live.query_p50_us.idle", "live.query_p50_us.ingest":
		return pct("live.query."+name[strings.LastIndex(name, ".")+1:], 0.5)
	case "live.query_p99_us.idle", "live.query_p99_us.ingest":
		return pct("live.query."+name[strings.LastIndex(name, ".")+1:], 0.99)
	case "codecs.decode_ns_per_posting.bitmap", "codecs.decode_ns_per_posting.list":
		fam := name[strings.LastIndex(name, ".")+1:]
		return ratio("codecs.ns."+fam, "codecs.postings."+fam)
	case "codecs.postings_decoded_per_query":
		return ratio("codecs.postings", "codecs.queries")
	case "ops.results_per_query":
		return mean("ops.results")
	case "ops.topk_blocks_decoded_ratio":
		return ratio("topk.blocks_decoded", "topk.blocks_total")
	case "ops.topk_docs_scored_per_query":
		return mean("topk.docs_scored")
	case "shard.leg_skew_p99":
		return pct("shard.leg_skew", 0.99)
	case "wal.fsyncs_per_ack":
		return ratio("wal.fsyncs", "live.acks")
	case "device.bytes_written_per_user_byte":
		return ratio("device.bytes", "live.user_bytes")
	case "loadgen.lag_p99_ms":
		return pct("loadgen.lag", 0.99)
	case "loadgen.lag_max_ms":
		return pct("loadgen.lag", 1)
	case "trace.overhead_ratio":
		u := pct("rt.untraced", 0.5)
		if u == 0 {
			return 0
		}
		return pct("rt.traced", 0.5) / u
	case "share.responses_over_10k_docs":
		return ratio("reads.big", "reads")
	case "share.topk_queries":
		return ratio("reads.topk", "reads")
	case "share.postings_from_list_codecs":
		return ratio("codecs.postings.list", "codecs.postings")
	case "share.reads_overlapping_flush":
		return ratio("live.overlap", "live.ingest_reads")
	default: // plain counts
		return t.counts[name]
	}
}

// codecFamily classifies a codec name as "bitmap" or "list" by the
// registry's own split (§2 bitmap methods vs §3 list representations).
var codecFamily = func() map[string]string {
	m := map[string]string{}
	for _, c := range append(codecs.Bitmaps(), codecs.Extensions()...) {
		m[c.Name()] = "bitmap"
	}
	for _, c := range codecs.Lists() {
		m[c.Name()] = "list"
	}
	return m
}()

// traceIndex makes the index-layer calls for one query on idx: one
// lookup per term, the query itself, then the ops kernel and each
// term's decode on their own, recording spans under parent.
func (t *tracer) traceIndex(req, parent int, idx *index.Index, q query, attr string) {
	i0 := time.Now()
	var nres int
	var stats ops.TopKStats
	switch q.Mode {
	case "and":
		docs, _ := idx.Conjunctive(q.Terms...)
		nres = len(docs)
	case "or":
		docs, _ := idx.Disjunctive(q.Terms...)
		nres = len(docs)
	default:
		ranked, _ := idx.TopKWith("auto", q.K, &stats, q.Terms...)
		nres = len(ranked)
	}
	i1 := time.Now()
	isp := t.record(req, parent, "index."+q.Mode, attr, i0, i1)
	t.sample("index."+q.Mode, us(i1.Sub(i0)))
	if q.Mode == "topk" {
		t.counts["topk.blocks_decoded"] += float64(stats.BlocksDecoded)
		t.counts["topk.blocks_total"] += float64(stats.BlocksTotal)
		t.sample("topk.docs_scored", float64(stats.DocsScored))
	} else {
		t.sample("ops.results", float64(nres))
	}

	posts := make([]core.Posting, 0, len(q.Terms))
	var names []string // the term of each posting in posts
	for _, term := range q.Terms {
		l0 := time.Now()
		p := idx.Postings(term)
		l1 := time.Now()
		t.record(req, isp, "index.lookup", attr, l0, l1)
		t.sample("index.lookup", us(l1.Sub(l0)))
		if p.Len() > 0 {
			posts, names = append(posts, p), append(names, term)
		}
	}
	parentOfDecode := isp
	switch q.Mode {
	case "and":
		if len(posts) == len(q.Terms) {
			o0 := time.Now()
			_, _ = ops.Intersect(posts) // same inputs the query above already answered
			o1 := time.Now()
			parentOfDecode = t.record(req, isp, "ops.intersect", attr, o0, o1)
			t.sample("ops.intersect", us(o1.Sub(o0)))
		}
	case "or":
		lists := make([][]uint32, 0, len(q.Terms))
		for _, term := range q.Terms {
			if d := idx.DecodedPostings(term); len(d) > 0 {
				lists = append(lists, d)
			}
		}
		o0 := time.Now()
		ops.UnionMany(lists)
		o1 := time.Now()
		parentOfDecode = t.record(req, isp, "ops.union", attr, o0, o1)
		t.sample("ops.union", us(o1.Sub(o0)))
	}
	t.counts["codecs.queries"]++
	for i, p := range posts {
		fam := codecFamily[idx.TermCodec(names[i])]
		if fam == "" {
			fam = "bitmap" // unrecorded provenance: the default build is Roaring
		}
		c0 := time.Now()
		p.Decompress()
		c1 := time.Now()
		t.record(req, parentOfDecode, "codecs.decode", fam, c0, c1)
		t.counts["codecs.ns."+fam] += float64(c1.Sub(c0).Nanoseconds())
		t.counts["codecs.postings."+fam] += float64(p.Len())
		t.counts["codecs.postings"] += float64(p.Len())
	}
}

// roundTrip sends q over c, filling r for verification. When traced it
// also records the outer span, the client decode and the shares, and
// returns the outer span's id; untraced it returns -1.
func (t *tracer) roundTrip(req int, c *conn, q query, traced bool, do reader, r *read) int {
	do(c, r)
	rt := us(r.done.Sub(r.sent))
	if r.status == http.StatusTooManyRequests {
		t.counts["server.sheds"]++
	}
	if !traced {
		t.sample("rt.untraced", rt)
		return -1
	}
	t.sample("rt.traced", rt)
	wire := t.record(req, -1, "wire", "", r.sent, r.done)
	body := c.buf.Bytes() // the response do just read
	d0 := time.Now()
	_, _ = decodeDigest(body) // correctness is judged by do; this only times the decode
	d1 := time.Now()
	t.record(req, wire, "wire.client_decode", "", d0, d1)
	t.sample("wire.client_decode", us(d1.Sub(d0)))
	t.sample("server.resp_bytes", float64(len(body)))
	t.counts["reads"]++
	if q.Mode == "topk" {
		t.counts["reads.topk"]++
	} else if r.n > 10000 {
		t.counts["reads.big"]++
	}
	return wire
}

// serveReplica times one request through an in-process handler and
// records it under wire.
func (t *tracer) serveReplica(req, wire int, h http.Handler, q query, rt time.Duration) (int, time.Duration) {
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodGet, q.path(), nil)
	s0 := time.Now()
	h.ServeHTTP(rec, hreq)
	s1 := time.Now()
	t.sample("wire.self", us(rt-s1.Sub(s0)))
	return t.record(req, wire, "server", "", s0, s1), s1.Sub(s0)
}

// replayer runs the untraced and traced sequential replays shared by
// every workload: the same requests over one connection, first plain
// round trips, then round trips followed by the replica calls inside.
type replayer struct {
	t     *tracer
	conn  *conn
	pool  []query
	seq   []int
	do    reader
	reads []read
}

// replay sends seq in order for at most dur (or n requests when n > 0)
// and returns how many it sent.
func (p *replayer) replay(dur time.Duration, n int, traced bool, inner func(req, wire int, q query, rt time.Duration)) int {
	start := time.Now()
	i := 0
	for ; (n > 0 && i < n) || (n == 0 && time.Since(start) < dur); i++ {
		q := p.pool[p.seq[i%len(p.seq)]]
		r := read{q: p.seq[i%len(p.seq)]}
		req := len(p.reads)
		wire := p.t.roundTrip(req, p.conn, q, traced, p.do, &r)
		p.reads = append(p.reads, r)
		if traced && r.err == nil && r.status == http.StatusOK {
			inner(req, wire, q, r.done.Sub(r.sent))
		}
	}
	return i
}

// replicaLogger sends the in-process replicas' request log to a file,
// as the binaries send theirs, so both pay the same logging cost.
func replicaLogger(dir string) (*log.Logger, *os.File, error) {
	f, err := os.Create(filepath.Join(dir, "replica.log"))
	if err != nil {
		return nil, nil, err
	}
	return log.New(f, "", log.LstdFlags), f, nil
}

// runTraced is the traced per-layer replay.
func runTraced(b *bench, w *workload, seed uint64, seconds int) (*result, error) {
	in, err := makeInputs(w, seed, seconds, b.work)
	if err != nil {
		return nil, err
	}
	var ref []uint64
	if !w.live {
		ref = answerAll(naiveOf(in.docs, nil), in.pool)
	}
	dir := filepath.Join(b.work, "traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := w.deploy(b, in, dir)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	var live *naive
	if w.live {
		live = naiveOf(in.docs, d.preload)
		ref = answerAll(live, in.pool)
	}
	conns := b.conns(d.front)
	defer closeAll(conns)
	warm := warmUp(conns, len(in.pool), checkedRead(in.pool, ref, nil))

	t := newTracer()
	logger, logFile, err := replicaLogger(dir)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()

	// Generator lag comes from the same open loop as the end-to-end run.
	lagPhase := time.Duration(seconds) * time.Second / 4
	var wr *writer
	var wg sync.WaitGroup
	readConns := conns
	if w.live {
		wr = &writer{ops: in.ops, texts: in.texts, preload: d.preload}
		wr.pace(writeRate)
		readConns = conns[1:]
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr.run(conns[0])
		}()
	}
	want := ref
	if w.live {
		want = nil // live answers are checked offline against a prefix of the writes
	}
	do := checkedRead(in.pool, want, wr)
	open, lags := openLoop(readConns, w.rate, lagPhase, in.openSeq, do)
	if wr != nil {
		wr.stop()
		wg.Wait()
	}
	for _, l := range lags {
		t.sample("loadgen.lag", ms(l))
	}

	rp := &replayer{t: t, conn: readConns[0], pool: in.pool, seq: in.closeSeq, do: do}
	var inner func(req, wire int, q query, rt time.Duration)
	var finish func() error
	switch {
	case w.live:
		inner, finish, err = liveReplica(t, in, dir, logger, seconds)
	case w.name == "routed-mix":
		inner, finish, err = routedReplica(t, d, logger)
	default:
		inner, finish, err = staticReplica(t, d, logger)
	}
	if err != nil {
		return nil, err
	}
	n := rp.replay(time.Duration(seconds)*time.Second/6, 0, false, nil)
	rp.replay(0, n, true, inner)
	if err := finish(); err != nil {
		return nil, err
	}

	// Check every answer the binaries gave.
	measured := make([]*read, 0, len(open)+len(rp.reads))
	for i := range open {
		measured = append(measured, &open[i])
	}
	for i := range rp.reads {
		measured = append(measured, &rp.reads[i])
	}
	if w.live {
		checkLive(live, in, wr, measured, nil)
	}
	res := newResult()
	res.note("%s (traced)", validity(w, seed, b))
	tally(res, measured, warm, in.pool, wr)

	spans := filepath.Join(b.spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := t.write(spans); err != nil {
		return nil, err
	}
	res.note("%d spans over %d traced requests written to %s", len(t.spans), len(rp.reads)-n, spans)
	res.note("shares: responses_over_10k_docs=%.4f topk_queries=%.4f postings_from_list_codecs=%.4f reads_overlapping_flush=%.4f decoded_cache_hits=%.4f",
		t.layerMetric("share.responses_over_10k_docs"), t.layerMetric("share.topk_queries"),
		t.layerMetric("share.postings_from_list_codecs"), t.layerMetric("share.reads_overlapping_flush"),
		t.layerMetric("index.cache_hit_ratio"))
	for _, m := range perLayer {
		res.set(m.name, t.layerMetric(m.name), m.unit)
	}
	return res, nil
}

// staticReplica opens the served index file in-process behind
// server.New and returns the per-request inner calls: ServeHTTP, then
// the index, ops and codec layers.
func staticReplica(t *tracer, d *deployment, logger *log.Logger) (func(req, wire int, q query, rt time.Duration), func() error, error) {
	idx, err := index.OpenFile(d.files[0])
	if err != nil {
		return nil, nil, err
	}
	srv := server.New(idx, server.Config{Logger: logger})
	h := srv.Handler()
	inner := func(req, wire int, q query, rt time.Duration) {
		sp, sd := t.serveReplica(req, wire, h, q, rt)
		n0 := len(t.samples["index."+q.Mode])
		t.traceIndex(req, sp, srv.Index(), q, "")
		if xs := t.samples["index."+q.Mode]; len(xs) > n0 {
			t.sample("server.self", us(sd)-xs[len(xs)-1])
		}
	}
	finish := func() error {
		st := srv.CacheStats()
		t.counts["index.cache_hit_ratio"] = share(st.Hits, st.Hits+st.Misses)
		t.counts["index.cache_mb"] = float64(st.Bytes) / (1 << 20)
		return idx.Close()
	}
	return inner, finish, nil
}

// timedBackend wraps a shard backend and records each Search's time.
type timedBackend struct {
	shard.Backend
	id  int
	mu  *sync.Mutex
	out *[]legTime
}

type legTime struct {
	shard int
	d     time.Duration
}

func (b *timedBackend) Search(ctx context.Context, req shard.Request) (shard.Result, error) {
	t0 := time.Now()
	res, err := b.Backend.Search(ctx, req)
	d := time.Since(t0)
	b.mu.Lock()
	*b.out = append(*b.out, legTime{b.id, d})
	b.mu.Unlock()
	return res, err
}

// routedReplica builds two in-process routers over the running shard
// binaries (HTTPBackend) and over the same shard files opened
// in-process (IndexBackend), plus the router's HTTP front.
func routedReplica(t *tracer, d *deployment, logger *log.Logger) (func(req, wire int, q query, rt time.Duration), func() error, error) {
	var mu sync.Mutex
	var legs []legTime
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	var httpB, idxB [][]shard.Backend
	var idxs []*index.Index
	var caches []*index.DecodedCache
	for s := 0; s < shards; s++ {
		httpB = append(httpB, []shard.Backend{&timedBackend{Backend: &shard.HTTPBackend{Base: d.procs[s].base, Client: client}, id: s, mu: &mu, out: &legs}})
		idx, err := index.OpenFile(d.files[1+s])
		if err != nil {
			return nil, nil, err
		}
		// Each shard binary runs with bvserve's default decoded cache.
		c := index.NewDecodedCache(32 << 20)
		idx.AttachCache(c)
		idxs, caches = append(idxs, idx), append(caches, c)
		idxB = append(idxB, []shard.Backend{&timedBackend{Backend: &shard.IndexBackend{Idx: idx}, id: s, mu: &mu, out: &legs}})
	}
	cfg := shard.RouterConfig{Hedge: true, HedgeMin: time.Millisecond, HedgeMax: 50 * time.Millisecond, ShardTimeout: 2 * time.Second}
	viaHTTP, err := shard.NewRouter(cfg, httpB)
	if err != nil {
		return nil, nil, err
	}
	viaIdx, err := shard.NewRouter(cfg, idxB)
	if err != nil {
		return nil, nil, err
	}
	h := shard.NewServer(viaHTTP, shard.ServerConfig{Logger: logger}).Handler()
	take := func() map[int]time.Duration {
		mu.Lock()
		defer mu.Unlock()
		m := map[int]time.Duration{}
		for _, l := range legs {
			m[l.shard] = l.d
		}
		legs = legs[:0]
		return m
	}
	inner := func(req, wire int, q query, rt time.Duration) {
		sreq := shard.Request{Mode: q.Mode, Terms: q.Terms, K: q.K}
		sp, sd := t.serveReplica(req, wire, h, q, rt)
		take()
		r0 := time.Now()
		_, _ = viaHTTP.Search(context.Background(), sreq) // answers are checked on the binary's round trip
		r1 := time.Now()
		rsp := t.record(req, sp, "shard.router", "http", r0, r1)
		t.sample("shard.router", us(r1.Sub(r0)))
		t.sample("server.self", us(sd-r1.Sub(r0)))
		hl := take()
		var ds []float64
		for s, dur := range hl {
			t.record(req, rsp, "shard.leg", fmt.Sprint(s), r0, r0.Add(dur))
			ds = append(ds, us(dur))
		}
		sort.Float64s(ds)
		if len(ds) > 0 {
			slowest := ds[len(ds)-1]
			t.sample("shard.leg_max", slowest)
			t.sample("shard.merge_self", us(r1.Sub(r0))-slowest)
			if med := median(ds); med > 0 {
				t.sample("shard.leg_skew", slowest/med)
			}
		}
		x0 := time.Now()
		_, _ = viaIdx.Search(context.Background(), sreq)
		x1 := time.Now()
		xsp := t.record(req, sp, "shard.router", "index", x0, x1)
		for s, dur := range take() {
			if hd, ok := hl[s]; ok {
				t.sample("shard.hop_self", us(hd-dur))
			}
		}
		for s, idx := range idxs {
			t.traceIndex(req, xsp, idx, q, fmt.Sprint(s))
		}
	}
	finish := func() error {
		for _, st := range viaHTTP.Stats() {
			t.counts["shard.degraded"] += float64(st.Degraded)
		}
		var hits, misses, bytes int64
		for _, c := range caches {
			st := c.Stats()
			hits, misses, bytes = hits+st.Hits, misses+st.Misses, bytes+int64(st.Bytes)
		}
		t.counts["index.cache_hit_ratio"] = share(hits, hits+misses)
		t.counts["index.cache_mb"] = float64(bytes) / (1 << 20)
		client.CloseIdleConnections()
		for _, idx := range idxs {
			if err := idx.Close(); err != nil {
				return err
			}
		}
		return nil
	}
	return inner, finish, nil
}
