package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one traffic mix against one deployment of the binaries.
type workload struct {
	name string
	// rate is the open-loop read rate in requests per second, set a
	// little under half the workload's read_max_qps when the benchmark
	// was defined and fixed since, so later changes are measured at the
	// same load.
	rate float64
	// docs is the corpus size (static, routed) or the number of
	// documents preloaded through /ingest (live).
	docs int
	pool func(r *rand.Rand, vocab []string) []query
	// deploy builds the index and starts the servers in dir. It returns
	// once every server answers /readyz.
	deploy func(b *bench, in *inputs, dir string) (*deployment, error)
	live   bool
}

// Each mix puts its median read inside one mode's latency cluster, not
// in the gap between two: at an even split of fast and slow modes the
// median jumps between the clusters with the sampled mix.
const (
	poolSize = 512     // distinct read queries per workload
	seqLen   = 1 << 16 // pre-drawn request sequence, cycled if a run outlasts it
	shards   = 4       // routed-mix partitions
	sealDocs = 500     // live-ingest: low enough for several compactions per run
	topK     = 10
	// headTerms is how many of the most frequent terms static-heavy
	// queries; the zipfian mixes draw past them, as the head terms
	// match up to 90% of all documents and would turn every mix into
	// static-heavy's response-encoding test.
	headTerms = 50
)

var workloads = []*workload{
	{
		// Response encoding, the wire, union/intersect and the decoded
		// cache do most of the work: 2-4-term AND and OR (1:2) over the
		// 50 most frequent terms return 10^3-10^5 documents.
		name: "static-heavy", rate: 230, docs: 200000,
		pool: func(r *rand.Rand, vocab []string) []query {
			out := make([]query, poolSize)
			for i := range out {
				mode := "or"
				if i%3 == 0 {
					mode = "and"
				}
				out[i] = query{Mode: mode, Terms: termsOf(vocab, distinctRanks(r, 2+r.IntN(3), 0, 50))}
			}
			return out
		},
		deploy: deployStatic,
	},
	{
		// Dictionary lookup, decode and top-k scoring dominate and
		// responses stay small: top-10 over one head and one or two
		// mid-frequency terms, and AND of a head term with a tail term
		// (2:1).
		name: "static-selective", rate: 1400, docs: 200000,
		pool: func(r *rand.Rand, vocab []string) []query {
			out := make([]query, poolSize)
			for i := range out {
				head := distinctRanks(r, 1, 0, 50)
				if i%3 != 0 {
					mid := distinctRanks(r, 1+r.IntN(2), 50, 1000)
					out[i] = query{Mode: "topk", Terms: termsOf(vocab, append(head, mid...)), K: topK}
				} else {
					tail := distinctRanks(r, 1, 1000, vocabSize)
					out[i] = query{Mode: "and", Terms: termsOf(vocab, append(head, tail...))}
				}
			}
			return out
		},
		deploy: deployStatic,
	},
	{
		// The only workload with writes beside reads: one connection
		// adds (and sometimes deletes) documents with an fsync per ack
		// while the other reads, so the WAL, the live index lock,
		// seal/compact and the cross-segment merge are all on the path.
		name: "live-ingest", rate: 900, docs: 2000, live: true,
		pool: func(r *rand.Rand, vocab []string) []query {
			z := newZipf(len(vocab)-headTerms, zipfS)
			out := make([]query, poolSize)
			modes := []string{"and", "or", "topk"}
			for i := range out {
				q := query{Mode: modes[i%3], Terms: termsOf(vocab, distinctZipf(r, z, headTerms, 2+r.IntN(2)))}
				if q.Mode == "topk" {
					q.K = topK
				}
				out[i] = q
			}
			return out
		},
		deploy: deployLive,
	},
	{
		// The only workload for scatter-gather: four shards behind the
		// router, point:AND:OR:top-k at 4:3:2:1 over zipfian terms. With
		// -codec auto it is also the only read workload that decodes
		// list codecs.
		name: "routed-mix", rate: 240, docs: 200000,
		pool: func(r *rand.Rand, vocab []string) []query {
			z := newZipf(len(vocab)-headTerms, zipfS)
			out := make([]query, poolSize)
			for i := range out {
				switch i % 10 {
				case 0, 1, 2, 3:
					out[i] = query{Mode: "and", Terms: termsOf(vocab, distinctZipf(r, z, headTerms, 1))}
				case 4, 5, 6:
					out[i] = query{Mode: "and", Terms: termsOf(vocab, distinctZipf(r, z, headTerms, 2+r.IntN(2)))}
				case 7, 8:
					out[i] = query{Mode: "or", Terms: termsOf(vocab, distinctZipf(r, z, headTerms, 2+r.IntN(2)))}
				default:
					out[i] = query{Mode: "topk", Terms: termsOf(vocab, distinctZipf(r, z, headTerms, 2+r.IntN(2))), K: topK}
				}
			}
			return out
		},
		deploy: deployRouted,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs are everything a run sends, drawn from the seed.
type inputs struct {
	docs     []string // corpus, or the live preload
	corpus   string   // the corpus file handed to bvindex
	pool     []query
	openSeq  []int // pool indices for the open loop
	closeSeq []int // pool indices for the closed loop
	ops      []writeOp
	texts    []string // live: documents the writer adds
}

func makeInputs(w *workload, seed uint64, seconds int, dir string) (*inputs, error) {
	vocab := vocabulary(seed)
	in := &inputs{docs: genDocs(seed, 2, w.docs, vocab)}
	in.pool = w.pool(newRand(seed, 3), vocab)
	r := newRand(seed, 4)
	in.openSeq = make([]int, seqLen)
	in.closeSeq = make([]int, seqLen)
	for i := range in.openSeq {
		in.openSeq[i] = r.IntN(len(in.pool))
		in.closeSeq[i] = r.IntN(len(in.pool))
	}
	if w.live {
		// More ops than the writer can ack in a run (it acks a few
		// thousand a second); unsent ops cost only memory.
		n := 4000*seconds + 4000
		in.texts = genDocs(seed, 5, n, vocab)
		in.ops = genWrites(newRand(seed, 6), n, w.docs)
		return in, nil
	}
	in.corpus = filepath.Join(dir, "corpus.txt")
	return in, os.WriteFile(in.corpus, []byte(strings.Join(in.docs, "\n")+"\n"), 0o644)
}

// genWrites draws n live writes: adds, and one delete in ten of a
// document not deleted yet, half of them preloaded (sealed) documents
// and half documents added earlier in the run.
func genWrites(r *rand.Rand, n, preload int) []writeOp {
	ops := make([]writeOp, 0, n)
	pre := r.Perm(preload)
	adds, text := 0, 0
	deleted := map[int]bool{}
	for len(ops) < n {
		if r.IntN(10) == 0 && adds > 0 {
			if r.IntN(2) == 0 && len(pre) > 0 {
				ops = append(ops, writeOp{del: true, target: -(pre[0] + 1)})
				pre = pre[1:]
				continue
			}
			t := r.IntN(adds)
			if !deleted[t] {
				deleted[t] = true
				ops = append(ops, writeOp{del: true, target: t})
				continue
			}
		}
		ops = append(ops, writeOp{text: text})
		text++
		adds++
	}
	return ops
}

// deployment is one running set of servers and the files they serve.
type deployment struct {
	procs   []*proc
	front   string   // base URL that reads and writes go to
	files   []string // on-disk index files (static, routed)
	liveDir string   // live index directory
	preload []uint32 // live: doc id acked for each preloaded document
}

func (d *deployment) stop() {
	// The front (router) goes first so no shard sees a request after
	// its own shutdown begins.
	for i := len(d.procs) - 1; i >= 0; i-- {
		d.procs[i].stop()
	}
}

// peakRSSMiB sums the servers' peak resident set sizes.
func (d *deployment) peakRSSMiB() (float64, error) {
	sum := 0.0
	for _, p := range d.procs {
		mb, err := p.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// diskBytes is the size of everything the index keeps on disk: the
// index files, or every file in the live directory (segments, WAL,
// manifest).
func (d *deployment) diskBytes() (int64, error) {
	files := d.files
	if d.liveDir != "" {
		ents, err := os.ReadDir(d.liveDir)
		if err != nil {
			return 0, err
		}
		files = nil
		for _, e := range ents {
			files = append(files, filepath.Join(d.liveDir, e.Name()))
		}
	}
	var sum int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		sum += st.Size()
	}
	return sum, nil
}

func deployStatic(b *bench, in *inputs, dir string) (*deployment, error) {
	idx := filepath.Join(dir, "index.bvix")
	if err := runTool(b.tool("bvindex"), "-build", "-in", in.corpus, "-out", idx); err != nil {
		return nil, err
	}
	p, err := startServer(b.tool("bvserve"), "bvserve", dir, "-index", idx)
	if err != nil {
		return nil, err
	}
	return &deployment{procs: []*proc{p}, front: p.base, files: []string{idx}}, nil
}

func deployRouted(b *bench, in *inputs, dir string) (*deployment, error) {
	sdir := filepath.Join(dir, "shards")
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		return nil, err
	}
	manifest := filepath.Join(sdir, "shards.json")
	if err := runTool(b.tool("bvindex"), "-build", "-in", in.corpus, "-partition", fmt.Sprint(shards), "-codec", "auto", "-out", manifest); err != nil {
		return nil, err
	}
	d := &deployment{files: []string{manifest}}
	var urls []string
	for s := 0; s < shards; s++ {
		f := filepath.Join(sdir, fmt.Sprintf("shard-%04d.bvix", s))
		p, err := startServer(b.tool("bvserve"), fmt.Sprintf("shard%d", s), dir, "-index", f)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.procs = append(d.procs, p)
		d.files = append(d.files, f)
		urls = append(urls, p.base)
	}
	// One replica per shard: hedging has nowhere to go, so it never fires.
	p, err := startServer(b.tool("bvrouter"), "bvrouter", dir, "-shards", strings.Join(urls, ";"))
	if err != nil {
		d.stop()
		return nil, err
	}
	d.procs = append(d.procs, p)
	d.front = p.base
	return d, nil
}

func deployLive(b *bench, in *inputs, dir string) (*deployment, error) {
	ldir := filepath.Join(dir, "live")
	p, err := startServer(b.tool("bvserve"), "bvserve", dir, "-live", ldir, "-seal-docs", fmt.Sprint(sealDocs))
	if err != nil {
		return nil, err
	}
	d := &deployment{procs: []*proc{p}, front: p.base, liveDir: ldir}
	conns := b.conns(p.base)
	defer closeAll(conns)
	if d.preload, err = preload(conns, in.docs); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// preload adds docs through /ingest over every connection and returns
// the doc id acked for each.
func preload(conns []*conn, docs []string) ([]uint32, error) {
	ids := make([]uint32, len(docs))
	var next atomic.Int64
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(docs) {
					return
				}
				body, _ := json.Marshal(map[string]string{"text": docs[i]}) // a map of strings always marshals
				status, resp, err := c.do(http.MethodPost, "/ingest", string(body))
				var ack struct {
					Doc *uint32 `json:"doc"`
				}
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("preload /ingest: status %d: %s", status, resp)
				}
				if err == nil {
					if jerr := json.Unmarshal(resp, &ack); jerr != nil || ack.Doc == nil {
						err = fmt.Errorf("preload /ingest: bad ack %q", resp)
					}
				}
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
				ids[i] = *ack.Doc
			}
		}(c)
	}
	wg.Wait()
	return ids, first
}

// stopwatch accumulates set-up time across the steps that count.
type stopwatch struct {
	total time.Duration
	t0    time.Time
}

func (s *stopwatch) start() { s.t0 = time.Now() }
func (s *stopwatch) pause() { s.total += time.Since(s.t0) }
