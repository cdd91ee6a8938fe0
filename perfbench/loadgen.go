package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// read is one timed read request and what came back.
type read struct {
	q          int       // index into the workload's query pool
	due        time.Time // scheduled send (open loop only)
	sent, done time.Time
	status     int
	err        error
	digest     uint64
	n          int   // integers in the answer: docs, or 2 per ranked hit
	lo, hi     int64 // live: writer ops acked at send, issued at receipt
	ok         bool  // verified against the reference
}

// latency is the request's time as the load model defines it: from
// the scheduled send in an open loop, from the actual send otherwise.
func (r *read) latency() time.Duration {
	if !r.due.IsZero() {
		return r.done.Sub(r.due)
	}
	return r.done.Sub(r.sent)
}

// reader performs one read on a connection and fills r.
type reader func(c *conn, r *read)

// openLoop sends reads from seq at a fixed rate for dur, spread over
// conns. Each read is due at its scheduled time whether or not an
// earlier one has finished: a free connection takes the next read from
// a shared cursor and sends it when due; when every connection is busy
// the read waits, and that wait counts in its latency. lags are how
// late a free connection sent a read, the generator's own lateness.
func openLoop(conns []*conn, rate float64, dur time.Duration, seq []int, do reader) (reads []read, lags []time.Duration) {
	n := int(rate * dur.Seconds())
	reads = make([]read, n)
	lags = make([]time.Duration, n)
	start := time.Now().Add(5 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	var cursor atomic.Int64
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
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					lags[i] = time.Since(due)
				}
				reads[i].q = seq[i%len(seq)]
				reads[i].due = due
				do(c, &reads[i])
			}
		}(c)
	}
	wg.Wait()
	return reads, lags
}

// closedLoop keeps every connection busy for dur: each takes the next
// read from one shared cursor over seq as soon as its previous read
// completes. Sharing the cursor keeps the mix fixed: a connection stuck
// on slow queries cannot leave the others only fast ones.
func closedLoop(conns []*conn, dur time.Duration, seq []int, do reader) (reads []read, elapsed time.Duration) {
	var cursor atomic.Int64
	per := make([][]read, len(conns))
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			for time.Since(start) < dur {
				i := cursor.Add(1) - 1
				r := read{q: seq[int(i)%len(seq)]}
				do(c, &r)
				per[ci] = append(per[ci], r)
			}
		}(ci, c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, p := range per {
		reads = append(reads, p...)
	}
	return reads, elapsed
}

// writeOp is one live write: an add of texts[text], or a delete of an
// earlier document. A delete's target >= 0 is the index of an earlier
// add in this sequence; target < 0 names preloaded document -(target+1).
type writeOp struct {
	del    bool
	text   int
	target int
}

// writer is the single client of the live workload's write path: it
// sends ops in order, each after the previous one is acked, because a
// durable-write client waits for its ack. While paced it also waits
// for each op's slot in a fixed-rate schedule; unpaced it writes as
// fast as acks come back.
type writer struct {
	ops     []writeOp
	texts   []string
	preload []uint32 // doc ids acked for the preloaded documents

	issued, acked atomic.Int64
	stopFlag      atomic.Bool
	interval      atomic.Int64 // pacing interval in ns; 0 = unpaced

	addIDs   []uint32        // doc id of each add, in op order
	pacedLat []time.Duration // latency of ops sent while paced
	err      error           // the failure that stopped the writer
}

// pace sets the writer's rate in ops per second; 0 unpaces it.
func (w *writer) pace(rate float64) {
	if rate <= 0 {
		w.interval.Store(0)
		return
	}
	w.interval.Store(int64(float64(time.Second) / rate))
}

func (w *writer) stop() { w.stopFlag.Store(true) }

// run sends ops until stopped or out of ops.
func (w *writer) run(c *conn) {
	var due time.Time
	for i, op := range w.ops {
		if w.stopFlag.Load() {
			return
		}
		iv := time.Duration(w.interval.Load())
		if iv > 0 {
			if now := time.Now(); due.Before(now.Add(-iv)) {
				due = now // (re)starting the schedule: no burst to catch up
			}
			time.Sleep(time.Until(due))
			due = due.Add(iv)
		}
		var path, body string
		if op.del {
			doc := w.target(op.target)
			path, body = "/delete", fmt.Sprintf(`{"doc":%d}`, doc)
		} else {
			b, _ := json.Marshal(map[string]string{"text": w.texts[op.text]}) // a map of strings always marshals
			path, body = "/ingest", string(b)
		}
		w.issued.Store(int64(i + 1))
		t0 := time.Now()
		status, resp, err := c.do(http.MethodPost, path, body)
		if iv > 0 {
			w.pacedLat = append(w.pacedLat, time.Since(t0))
		}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", path, status, resp)
		}
		if err == nil && !op.del {
			var ack struct {
				Doc *uint32 `json:"doc"`
			}
			if jerr := json.Unmarshal(resp, &ack); jerr != nil || ack.Doc == nil {
				err = fmt.Errorf("/ingest: bad ack %q", resp)
			} else {
				w.addIDs = append(w.addIDs, *ack.Doc)
			}
		}
		if err != nil {
			// The op's effect is unknown, so later reads cannot be
			// checked against a known prefix: stop writing.
			w.err = err
			return
		}
		w.acked.Store(int64(i + 1))
	}
}

func (w *writer) target(t int) uint32 {
	if t < 0 {
		return w.preload[-(t + 1)]
	}
	return w.addIDs[t]
}
