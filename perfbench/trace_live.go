package main

import (
	"fmt"
	"log"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultio"
	"repro/internal/index"
	"repro/internal/server"
)

// countFS wraps faultio.OS for the live replica: it counts every byte
// written and times every fsync of a WAL file.
type countFS struct {
	faultio.FS
	written  atomic.Int64
	mu       sync.Mutex
	walSyncs []time.Duration
}

func (c *countFS) wrap(f faultio.File, err error) (faultio.File, error) {
	if err != nil {
		return nil, err
	}
	base := filepath.Base(f.Name())
	return &countFile{File: f, fs: c, wal: strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".log")}, nil
}

func (c *countFS) Create(path string) (faultio.File, error) { return c.wrap(c.FS.Create(path)) }

func (c *countFS) OpenAppend(path string) (faultio.File, error) {
	return c.wrap(c.FS.OpenAppend(path))
}

func (c *countFS) snapshot() (bytes int64, syncs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.written.Load(), len(c.walSyncs)
}

type countFile struct {
	faultio.File
	fs  *countFS
	wal bool
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	if f.wal {
		d := time.Since(t0)
		f.fs.mu.Lock()
		f.fs.walSyncs = append(f.fs.walSyncs, d)
		f.fs.mu.Unlock()
	}
	return err
}

// liveQuery answers q on l and returns the answer's digest.
func liveQuery(l *index.Live, q query) (uint64, error) {
	switch q.Mode {
	case "and":
		docs, err := l.Conjunctive(q.Terms...)
		return digest(docs, nil), err
	case "or":
		docs, err := l.Disjunctive(q.Terms...)
		return digest(docs, nil), err
	default:
		ranked, err := l.TopK(q.K, q.Terms...)
		out := make([]scored, len(ranked))
		for i, r := range ranked {
			out[i] = scored{r.Doc, uint32(r.Score)}
		}
		return digest(nil, out), err
	}
}

// liveReplica opens an in-process live index in its own directory with
// the shipped flush policy and a counting file system, preloads the
// same documents, and serves it with server.NewLive. The per-request
// inner calls time ServeHTTP and the Live query. finish then times Live
// queries with the writer paused and with an in-process writer running,
// and finally one Seal and one Compact.
func liveReplica(t *tracer, in *inputs, dir string, logger *log.Logger, seconds int) (func(req, wire int, q query, rt time.Duration), func() error, error) {
	fs := &countFS{FS: faultio.OS}
	l, err := index.OpenLive(filepath.Join(dir, "replica"), index.LiveOptions{FS: fs, SealDocs: sealDocs, CompactSegments: 4})
	if err != nil {
		return nil, nil, err
	}
	ids := make([]uint32, len(in.docs))
	for i, doc := range in.docs {
		if ids[i], err = l.Add(doc); err != nil {
			l.Close()
			return nil, nil, err
		}
	}
	h := server.NewLive(l, server.Config{Logger: logger, CacheBytes: -1}).Handler()
	inner := func(req, wire int, q query, rt time.Duration) {
		sp, sd := t.serveReplica(req, wire, h, q, rt)
		q0 := time.Now()
		_, _ = liveQuery(l, q) // the idle phase below checks the replica's answers
		q1 := time.Now()
		t.record(req, sp, "live.query", "idle", q0, q1)
		t.sample("server.self", us(sd-q1.Sub(q0)))
	}
	finish := func() (err error) {
		defer func() {
			if cerr := l.Close(); err == nil {
				err = cerr
			}
		}()
		phase := time.Duration(seconds) * time.Second / 8
		ref := answerAll(naiveOf(in.docs, ids), in.pool)
		start := time.Now()
		for i := 0; time.Since(start) < phase; i++ {
			qi := in.openSeq[i%len(in.openSeq)]
			q0 := time.Now()
			d, err := liveQuery(l, in.pool[qi])
			t.sample("live.query.idle", us(time.Since(q0)))
			if err != nil || d != ref[qi] {
				return fmt.Errorf("live replica: %s: answer differs from the reference (%v)", in.pool[qi].path(), err)
			}
		}

		st0 := l.Stats()
		bytes0, syncs0 := fs.snapshot()
		var stop atomic.Bool
		var werr error
		var acks, userBytes int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var addIDs []uint32
			for _, op := range in.ops {
				if stop.Load() {
					return
				}
				if op.del {
					var doc uint32
					if op.target < 0 {
						doc = ids[-(op.target + 1)]
					} else {
						doc = addIDs[op.target]
					}
					if werr = l.Delete(doc); werr != nil {
						return
					}
				} else {
					text := in.texts[op.text]
					a0 := time.Now()
					id, err := l.Add(text)
					t.record(-1, -1, "live.add", "", a0, time.Now())
					if werr = err; err != nil {
						return
					}
					addIDs = append(addIDs, id)
					userBytes += int64(len(text))
				}
				acks++
			}
		}()
		segMax := st0.Segments
		var overlap, reads float64
		var samples []float64
		start = time.Now()
		for i := 0; time.Since(start) < phase; i++ {
			qi := in.closeSeq[i%len(in.closeSeq)]
			before := l.Stats()
			q0 := time.Now()
			_, qerr := liveQuery(l, in.pool[qi])
			samples = append(samples, us(time.Since(q0)))
			after := l.Stats()
			if qerr != nil {
				stop.Store(true)
				wg.Wait()
				return fmt.Errorf("live replica: %s: %w", in.pool[qi].path(), qerr)
			}
			reads++
			if before.FrozenDocs > 0 || after.FrozenDocs > 0 ||
				after.Seals != before.Seals || after.Compactions != before.Compactions {
				overlap++
			}
			segMax = max(segMax, after.Segments)
		}
		stop.Store(true)
		wg.Wait()
		if werr != nil {
			return fmt.Errorf("live replica writer: %w", werr)
		}
		st1 := l.Stats()
		bytes1, syncs1 := fs.snapshot()
		for _, s := range samples {
			t.sample("live.query.ingest", s)
		}
		for _, sp := range t.spans {
			if sp.Layer == "live.add" {
				t.sample("live.add", float64(sp.End-sp.Start)/1e3)
			}
		}
		fs.mu.Lock()
		for _, d := range fs.walSyncs[syncs0:syncs1] {
			t.sample("wal.fsync", us(d))
		}
		fs.mu.Unlock()
		t.counts["wal.fsyncs"] = float64(syncs1 - syncs0)
		t.counts["live.acks"] = float64(acks)
		t.counts["device.bytes"] = float64(bytes1 - bytes0)
		t.counts["live.user_bytes"] = float64(userBytes)
		t.counts["live.seals"] = float64(st1.Seals - st0.Seals)
		t.counts["live.compactions"] = float64(st1.Compactions - st0.Compactions)
		t.counts["live.segments_max"] = float64(segMax)
		t.counts["live.overlap"] = overlap
		t.counts["live.ingest_reads"] = reads

		s0 := time.Now()
		if err := l.Seal(); err != nil {
			return fmt.Errorf("live replica seal: %w", err)
		}
		t.counts["live.seal_ms"] = ms(time.Since(s0))
		c0 := time.Now()
		if err := l.Compact(); err != nil {
			return fmt.Errorf("live replica compact: %w", err)
		}
		t.counts["live.compact_ms"] = ms(time.Since(c0))
		return nil
	}
	return inner, finish, nil
}
