package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// answerAll returns the digest of every pool query's answer on n,
// evaluated over all cores.
func answerAll(n *naive, pool []query) []uint64 {
	want := make([]uint64, len(pool))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(pool) {
					return
				}
				docs, ranked := n.answer(pool[i])
				want[i] = digest(docs, ranked)
			}
		}()
	}
	wg.Wait()
	return want
}

// sortBy sorts idx ascending by key, stably.
func sortBy(idx []int, key func(int) uint32) {
	sort.SliceStable(idx, func(a, b int) bool { return key(idx[a]) < key(idx[b]) })
}

// naiveOf indexes docs in the reference, doc i under ids[i], or under
// i when ids is nil.
func naiveOf(docs []string, ids []uint32) *naive {
	n := newNaive()
	if ids == nil {
		for i, d := range docs {
			n.add(uint32(i), d)
		}
		return n
	}
	// Concurrent preload acks ids out of order; the reference needs
	// them ascending.
	order := make([]int, len(docs))
	for i := range order {
		order[i] = i
	}
	sortBy(order, func(i int) uint32 { return ids[i] })
	for _, i := range order {
		n.add(ids[i], docs[i])
	}
	return n
}

// checkedRead returns a reader that sends pool queries and checks the
// answer against want, or, when want is nil, records the answer's
// digest for the offline live check.
func checkedRead(pool []query, want []uint64, wr *writer) reader {
	return func(c *conn, r *read) {
		q := pool[r.q]
		if wr != nil {
			r.lo = wr.acked.Load()
		}
		r.sent = time.Now()
		var body []byte
		r.status, body, r.err = c.do(http.MethodGet, q.path(), "")
		r.done = time.Now()
		if wr != nil {
			r.hi = wr.issued.Load()
		}
		if r.err != nil || r.status != http.StatusOK {
			return
		}
		if want == nil {
			d, err := decodeDigest(body)
			r.err = err
			r.digest = d
			_, r.n = answerDigest(body, q.Mode)
			return
		}
		r.digest, r.n = answerDigest(body, q.Mode)
		r.ok = r.digest == want[r.q]
		if !r.ok {
			d, err := decodeDigest(body)
			r.ok = err == nil && d == want[r.q]
		}
	}
}

// warmUp sends every pool query once over all connections.
func warmUp(conns []*conn, n int, do reader) []read {
	var cursor atomic.Int64
	reads := make([]read, n)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= n {
					return
				}
				reads[i].q = i
				do(c, &reads[i])
			}
		}(c)
	}
	wg.Wait()
	return reads
}

// setUp deploys w setupReps times, each from scratch, and returns the
// last deployment still running with the reference for its state and
// every set-up time. The reference truth is computed off the clock.
func setUp(b *bench, w *workload, in *inputs, static []uint64) (d *deployment, ref []uint64, live *naive, times []float64, warm []read, err error) {
	for rep := 0; rep < setupReps; rep++ {
		dir := filepath.Join(b.work, fmt.Sprintf("rep%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, nil, nil, nil, err
		}
		var sw stopwatch
		sw.start()
		d, err = w.deploy(b, in, dir)
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
		ref = static
		if w.live {
			sw.pause()
			live = naiveOf(in.docs, d.preload)
			ref = answerAll(live, in.pool)
			sw.start()
		}
		conns := b.conns(d.front)
		warm = append(warm, warmUp(conns, len(in.pool), checkedRead(in.pool, ref, nil))...)
		closeAll(conns)
		sw.pause()
		times = append(times, sw.total.Seconds())
		if rep < setupReps-1 {
			d.stop()
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, nil, nil, nil, err
			}
		}
	}
	return d, ref, live, times, warm, nil
}

// window is one open-loop stretch followed by one closed-loop stretch.
type window struct {
	open    []read
	lags    []time.Duration
	closed  []read
	elapsed time.Duration
}

// phases is what the measured part of a run recorded.
type phases struct {
	windows []window
	wr      *writer
	// live: reads beside the unpaced writer, how long it ran and what
	// it acked
	burst     []read
	burstTime time.Duration
	burstAcks int64
	// live: the writer's acked ops and the live directory's size,
	// sampled through the run
	marks []int64
	disk  []int64
}

// writeRate paces the live writer through the windows, about a sixth
// of its unpaced ack rate when the benchmark was defined: a fixed write
// load keeps the index growth, and so the read cost, the same on every
// run. Reads wait on the writer's fsyncs, so at twice this rate the
// closed-loop read rate swung twice as much between runs.
const writeRate = 250

// sampleDisk records the live directory's size and the writer's acked
// ops every 100 ms until stop is closed. The size swings with every
// seal and compaction, so the report takes the median over the run.
func (ph *phases) sampleDisk(d *deployment, stop <-chan struct{}) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		acked := ph.wr.acked.Load()
		if size, err := d.diskBytes(); err == nil { // a file removed mid-scan skips this sample
			ph.marks, ph.disk = append(ph.marks, acked), append(ph.disk, size)
		}
	}
}

// measureWindows is how many open/closed windows a run alternates.
// A shared host's CPU comes and goes in bursts of about a second; a
// median over windows that each saw both states is steadier than one
// long stretch of each loop.
const measureWindows = 10

// measure alternates measureWindows windows, each an open-loop stretch
// for two thirds of its time and a closed-loop stretch for the rest:
// tail percentiles need more samples than a mean rate does. In a live
// workload one connection is the writer throughout and reads use the
// others: paced through the windows, then unpaced for one more tenth
// of the run beside open-loop reads, to measure its ack rate.
func measure(b *bench, w *workload, in *inputs, d *deployment, ref []uint64, seconds int) *phases {
	conns := b.conns(d.front)
	defer closeAll(conns)
	per := time.Duration(seconds) * time.Second / measureWindows
	ph := &phases{}
	var wg sync.WaitGroup
	stopSampling := make(chan struct{})
	readConns := conns
	if w.live {
		ph.wr = &writer{ops: in.ops, texts: in.texts, preload: d.preload}
		ph.wr.pace(writeRate)
		readConns = conns[1:]
		wg.Add(2)
		go func() {
			defer wg.Done()
			ph.wr.run(conns[0])
		}()
		go func() {
			defer wg.Done()
			ph.sampleDisk(d, stopSampling)
		}()
		ref = nil // live answers are checked offline against a prefix of the writes
	}
	do := checkedRead(in.pool, ref, ph.wr)
	openOff, closedOff := 0, 0
	for i := 0; i < measureWindows; i++ {
		var win window
		win.open, win.lags = openLoop(readConns, w.rate, per*2/3, in.openSeq[openOff:], do)
		win.closed, win.elapsed = closedLoop(readConns, per/3, in.closeSeq[closedOff:], do)
		openOff = (openOff + len(win.open)) % (len(in.openSeq) / 2)
		closedOff = (closedOff + len(win.closed)) % (len(in.closeSeq) / 2)
		ph.windows = append(ph.windows, win)
	}
	if ph.wr != nil {
		acked := ph.wr.acked.Load()
		t0 := time.Now()
		ph.wr.pace(0)
		ph.burst, _ = openLoop(readConns, w.rate, per, in.openSeq[openOff:], do)
		ph.wr.stop()
		close(stopSampling)
		wg.Wait()
		ph.burstTime = time.Since(t0)
		ph.burstAcks = ph.wr.acked.Load() - acked
	}
	return ph
}

// measured lists every read of the measured windows.
func (ph *phases) measured() []*read {
	var out []*read
	for wi := range ph.windows {
		win := &ph.windows[wi]
		for i := range win.open {
			out = append(out, &win.open[i])
		}
		for i := range win.closed {
			out = append(out, &win.closed[i])
		}
	}
	for i := range ph.burst {
		out = append(out, &ph.burst[i])
	}
	return out
}

// checkLive verifies each live read offline: its answer must equal the
// reference after some prefix of the writer's ops, no shorter than the
// ops acked when it was sent and no longer than the ops issued when it
// returned. It marks reads ok and returns the reference's posting count
// after each of marks ops (ascending).
func checkLive(base *naive, in *inputs, wr *writer, reads []*read, marks []int64) []int {
	order := make([]int, len(reads))
	for i := range order {
		order[i] = i
	}
	sortBy(order, func(i int) uint32 { return uint32(reads[i].lo) })
	n := base
	applied := 0
	adds := 0
	var postings []int
	apply := func() {
		op := wr.ops[applied]
		if op.del {
			n.del(wr.target(op.target))
		} else {
			n.add(wr.addIDs[adds], wr.texts[op.text])
			adds++
		}
		applied++
	}
	var active []*read
	next := 0
	acked := int(wr.acked.Load())
	for p := 0; ; p++ {
		for len(postings) < len(marks) && marks[len(postings)] == int64(p) {
			postings = append(postings, n.postings)
		}
		for next < len(order) && int(reads[order[next]].lo) <= p {
			if r := reads[order[next]]; r.err == nil && r.status == http.StatusOK {
				active = append(active, r)
			}
			next++
		}
		memo := map[int]uint64{}
		keep := active[:0]
		for _, r := range active {
			if int(r.hi) < p {
				continue // window passed without a match
			}
			want, ok := memo[r.q]
			if !ok {
				docs, ranked := n.answer(in.pool[r.q])
				want = digest(docs, ranked)
				memo[r.q] = want
			}
			if want == r.digest {
				r.ok = true
				continue
			}
			keep = append(keep, r)
		}
		active = keep
		if p >= acked {
			break
		}
		apply()
	}
	return postings
}

// runE2E is the untraced end-to-end measurement.
func runE2E(b *bench, w *workload, seed uint64, seconds int) (*result, error) {
	in, err := makeInputs(w, seed, seconds, b.work)
	if err != nil {
		return nil, err
	}
	var static []uint64
	var postings int
	if !w.live {
		n := naiveOf(in.docs, nil)
		static = answerAll(n, in.pool)
		postings = n.postings
	}
	d, ref, live, setupTimes, warm, err := setUp(b, w, in, static)
	if err != nil {
		return nil, err
	}
	ph := measure(b, w, in, d, ref, seconds)
	rss, rssErr := d.peakRSSMiB()
	disk, diskErr := d.diskBytes()
	cache, cacheErr := fetchCacheStats(d)
	d.stop()
	for _, e := range []error{rssErr, diskErr, cacheErr} {
		if e != nil {
			return nil, e
		}
	}

	res := newResult()
	res.note("%s", validity(w, seed, b))
	measured := ph.measured()
	bits := float64(disk) * 8 / float64(postings)
	if ph.wr != nil {
		// The live directory grows and shrinks with every seal and
		// compaction, so its size is sampled after each window and the
		// median reported.
		var per []float64
		for i, p := range checkLive(live, in, ph.wr, measured, ph.marks) {
			per = append(per, float64(ph.disk[i])*8/float64(p))
		}
		bits = median(per)
	}

	all := tally(res, measured, warm, in.pool, ph.wr)

	var lags []time.Duration
	var openLat, p50s, qps []float64
	okClosed, nOpen := 0, 0
	var closedTime time.Duration
	for _, win := range ph.windows {
		lags = append(lags, win.lags...)
		lat := make([]float64, len(win.open))
		for i := range win.open {
			lat[i] = ms(win.open[i].latency())
		}
		openLat = append(openLat, lat...)
		nOpen += len(lat)
		p50s = append(p50s, quantile(lat, 0.50))
		ok := 0
		for i := range win.closed {
			if win.closed[i].ok {
				ok++
			}
		}
		okClosed += ok
		closedTime += win.elapsed
		qps = append(qps, float64(ok)/win.elapsed.Seconds())
	}
	lagMs := durations(lags, time.Millisecond)
	lagP99 := quantile(lagMs, 0.99)
	res.note("loadgen: %d open-loop reads, generator lag p99 %.3f ms, max %.3f ms", nOpen, lagP99, quantile(lagMs, 1))
	if time.Duration(lagP99*float64(time.Millisecond)) > maxLagP99 {
		res.note("INVALID: the generator ran more than %s behind its schedule at p99; latencies not reported", maxLagP99)
		res.printNotes(os.Stdout)
		return nil, errInvalid
	}
	res.set("setup_s", median(setupTimes), "s")
	res.set("read_max_qps", median(qps), "req/s")
	res.set("index_bits_per_posting", bits, "bits")
	res.set("server_rss_mb", rss, "MiB")
	res.note("setup_s: median of %d deployments: %.4f s", len(setupTimes), setupTimes)
	res.note("read_max_qps: median over %d windows of closed-loop reads per second (%d reads in %.2f s)",
		len(ph.windows), okClosed, closedTime.Seconds())
	res.note("disk: %d bytes at the end of the run", disk)
	detail := fmt.Sprintf("(%d open-loop reads at %g req/s over %d windows)", nOpen, w.rate, len(ph.windows))
	res.extra("read_p50_ms", median(p50s), "ms", "median of window p50s "+detail)
	res.extra("read_p99_ms", quantile(openLat, 0.99), "ms", detail)
	res.extra("fail_ratio", float64(res.Failed)/float64(res.Attempted), "fraction", fmt.Sprintf("(%d failed of %d attempted)", res.Failed, res.Attempted))
	if ph.wr != nil {
		wl := durations(ph.wr.pacedLat, time.Millisecond)
		res.extra("write_acks_per_s", float64(ph.burstAcks)/ph.burstTime.Seconds(), "ops/s",
			fmt.Sprintf("(%d /ingest and /delete acked unpaced beside %g req/s of reads in %.2f s)", ph.burstAcks, w.rate, ph.burstTime.Seconds()))
		detail := fmt.Sprintf("(%d writes paced at %d ops/s)", len(wl), writeRate)
		res.extra("write_p50_ms", quantile(wl, 0.5), "ms", detail)
		res.extra("write_p99_ms", quantile(wl, 0.99), "ms", detail)
	}
	res.note("%s", shareLine(all, in.pool, cache))
	return res, nil
}

// tally counts every read, warm-up included, and every write into
// res, notes the first failure, and returns all the reads.
func tally(res *result, measured []*read, warm []read, pool []query, wr *writer) []*read {
	all := measured
	for i := range warm {
		all = append(all, &warm[i])
	}
	for _, r := range all {
		res.Attempted++
		if !r.ok {
			res.Failed++
			if res.Failed == 1 {
				res.note("first failure: %v", describeFailure(r, pool))
			}
		}
	}
	if wr != nil {
		res.Attempted += int(wr.issued.Load())
		if wr.err != nil {
			res.Failed++
			res.note("writer failure: %v", wr.err)
		}
	}
	res.Correct = res.Failed == 0
	return all
}

func describeFailure(r *read, pool []query) error {
	q := pool[r.q]
	switch {
	case r.err != nil:
		return fmt.Errorf("%s: %v", q.path(), r.err)
	case r.status != http.StatusOK:
		return fmt.Errorf("%s: status %d", q.path(), r.status)
	default:
		return fmt.Errorf("%s: answer differs from the reference", q.path())
	}
}
