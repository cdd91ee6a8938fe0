package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/index"
	"repro/internal/ops"
)

// Handler builds the full route set. Application routes (/search,
// /stats, /reload, /ingest, /delete, Config.Routes) run inside the
// validation, load shedding, and timeout middleware; the probes
// /healthz and /readyz bypass those gates so they stay answerable under
// full load. Logging and panic recovery wrap everything. /search and
// /stats are the same in every mode; the write routes exist only where
// the mode has something to write.
func (s *Server) Handler() http.Handler {
	app := http.NewServeMux()
	app.HandleFunc("/search", s.handleSearch)
	app.HandleFunc("/stats", s.handleStats)
	switch {
	case s.live != nil:
		app.HandleFunc("/reload", s.handleLiveSeal)
		app.HandleFunc("/ingest", s.handleIngest)
		app.HandleFunc("/delete", s.handleDelete)
	case s.router == nil:
		app.HandleFunc("/reload", s.handleReload)
	}
	if s.cfg.Routes != nil {
		s.cfg.Routes(app)
	}
	inner := s.withRequestTimeout(app)
	inner = s.limitConcurrency(inner)
	inner = s.validateURL(inner)

	root := http.NewServeMux()
	root.HandleFunc("/healthz", s.handleHealthz)
	root.HandleFunc("/readyz", s.handleReadyz)
	root.Handle("/", inner)
	return s.logRequests(s.recoverPanics(root))
}

// handleHealthz is the liveness probe: the process is up and able to
// answer HTTP. It additionally reports degradation, still with 200 —
// the process is alive and serving what it can; see the
// corruption-recovery runbook:
//
//   - static: the index opened in salvage mode with sections
//     quarantined;
//   - live: a sealed segment failed its checksums and is quarantined,
//     while the mutable segment (and every healthy sealed segment) keeps
//     serving and accepting writes;
//   - routed: every replica is live-probed; shards with no healthy
//     replica make the fleet "partial", and with none left it is
//     "down" with 503.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.live != nil:
		h := s.live.Health()
		if !h.Degraded {
			break
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"status":              "degraded",
			"detail":              "sealed segment quarantined, mutable segment live",
			"quarantinedSegments": h.QuarantinedSegments,
			"mutableLive":         h.MutableLive,
		})
		return
	case s.router != nil:
		ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		defer cancel()
		down, n := s.router.Health(ctx), s.router.Shards()
		switch {
		case len(down) == 0:
			writeJSON(w, http.StatusOK, map[string]interface{}{"status": "ok", "shards": n})
		case len(down) < n:
			writeJSON(w, http.StatusOK, map[string]interface{}{"status": "partial", "shards": n, "shardsDown": down})
		default:
			writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"status": "down", "shards": n, "shardsDown": down})
		}
		return
	default:
		snap := s.acquire()
		h := snap.Index().Health()
		snap.Release()
		if !h.Degraded {
			break
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"status":              "degraded",
			"quarantinedSections": h.QuarantinedSections,
			"quarantinedTerms":    h.QuarantinedTerms,
			"quarantinedImpacts":  h.QuarantinedImpacts,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 only while serving traffic,
// 503 before startup finishes and as soon as draining begins so load
// balancers stop routing here ahead of shutdown.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// handleReload swaps in a freshly loaded index without dropping
// in-flight requests. POST only; SIGHUP reaches the same code path.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "reload requires POST"})
		return
	}
	if err := s.Reload(); err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	snap := s.acquire()
	defer snap.Release()
	idx := snap.Index()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":     "reloaded",
		"docs":       idx.Docs(),
		"terms":      idx.Terms(),
		"reloads":    s.Reloads(),
		"generation": s.Generation(),
	})
}

// handleStats reports the serving-side gauges every mode shares —
// in-flight, sheds, readiness, queries, the latency histogram and the
// status classes — plus the shape of what is served: the static index
// and its reload generation, the live segments, or the router's
// per-shard latency / hedge / degraded rows.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := map[string]interface{}{
		"inFlight": s.inFlight.Load(),
		"sheds":    s.Sheds(),
		"ready":    s.Ready(),
		"queries":  s.queries.Load(),
		"latency":  s.LatencySummary(),
		"statuses": s.StatusCounts(),
	}
	switch {
	case s.live != nil:
		ls := s.live.Stats()
		st["documents"] = ls.VisibleDocs
		st["live"] = ls
		st["ingestSheds"] = s.IngestSheds()
		st["health"] = s.live.Health()
	case s.router != nil:
		st["shards"] = s.router.Shards()
		st["partialAnswers"] = s.partial.Load()
		st["perShard"] = s.perShard()
	default:
		snap := s.acquire()
		defer snap.Release()
		idx := snap.Index()
		st["documents"] = idx.Docs()
		st["terms"] = idx.Terms()
		st["compressedBytes"] = idx.SizeBytes()
		st["reloads"] = s.Reloads()
		st["generation"] = s.Generation()
		st["health"] = idx.Health()
		st["postingCache"] = s.CacheStats()
	}
	writeJSON(w, http.StatusOK, st)
}

// searchResponse is the /search JSON shape, one for every mode. TopK
// carries the pruning work counters for ranked queries, so callers (and
// the load harness) can see how many blocks the chosen algorithm
// actually decoded. Partial, DegradedShards and Shards are set only by
// a routed server; Partial is then always present.
type searchResponse struct {
	Query          []string       `json:"query"`
	Mode           string         `json:"mode"`
	Docs           []uint32       `json:"docs,omitempty"`
	Ranked         []index.Result `json:"ranked,omitempty"`
	Matches        int            `json:"matches"`
	TopK           *ops.TopKStats `json:"topk,omitempty"`
	Partial        *bool          `json:"partial,omitempty"`
	DegradedShards []int          `json:"degradedShards,omitempty"`
	Shards         int            `json:"shards,omitempty"`
}

// writeSearch writes a 200 /search answer. The body is byte-identical to
// json.NewEncoder(w).Encode(resp) — the same HTML escaping, omitempty
// fields and trailing newline — so every client decodes it unchanged,
// but the docs array, which dominates result-heavy answers, is appended
// with strconv rather than reflection, into one buffer sized up front,
// and the answer goes out in one write with its Content-Length.
func writeSearch(w http.ResponseWriter, resp searchResponse) {
	// The small fields keep encoding/json's escaping; Marshal cannot
	// fail on strings and ints.
	query, _ := json.Marshal(resp.Query)
	mode, _ := json.Marshal(resp.Mode)
	var ranked, topk, routed []byte
	if len(resp.Ranked) > 0 {
		ranked, _ = json.Marshal(resp.Ranked)
	}
	if resp.TopK != nil {
		topk, _ = json.Marshal(resp.TopK)
	}
	if resp.Partial != nil {
		routed = strconv.AppendBool(append(routed, `,"partial":`...), *resp.Partial)
	}
	if len(resp.DegradedShards) > 0 {
		d, _ := json.Marshal(resp.DegradedShards)
		routed = append(append(routed, `,"degradedShards":`...), d...)
	}
	if resp.Shards != 0 {
		routed = strconv.AppendInt(append(routed, `,"shards":`...), int64(resp.Shards), 10)
	}
	var num [20]byte
	matches := strconv.AppendInt(num[:0], int64(resp.Matches), 10)

	size := len(`{"query":`) + len(query) + len(`,"mode":`) + len(mode) +
		len(`,"matches":`) + len(matches) + len("}\n")
	if len(resp.Docs) > 0 {
		size += len(`,"docs":[]`) + len(resp.Docs) - 1
		for _, d := range resp.Docs {
			size += decimalLen(d)
		}
	}
	if ranked != nil {
		size += len(`,"ranked":`) + len(ranked)
	}
	if topk != nil {
		size += len(`,"topk":`) + len(topk)
	}
	size += len(routed)

	buf := make([]byte, 0, size)
	buf = append(buf, `{"query":`...)
	buf = append(buf, query...)
	buf = append(buf, `,"mode":`...)
	buf = append(buf, mode...)
	if len(resp.Docs) > 0 {
		buf = append(buf, `,"docs":[`...)
		for i, d := range resp.Docs {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendUint(buf, uint64(d), 10)
		}
		buf = append(buf, ']')
	}
	if ranked != nil {
		buf = append(buf, `,"ranked":`...)
		buf = append(buf, ranked...)
	}
	buf = append(buf, `,"matches":`...)
	buf = append(buf, matches...)
	if topk != nil {
		buf = append(buf, `,"topk":`...)
		buf = append(buf, topk...)
	}
	buf = append(buf, routed...)
	buf = append(buf, "}\n"...)

	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf); err != nil {
		// The client went away; nothing useful to do.
		_ = err
	}
}

// pow10 holds the powers of ten a uint32 can reach.
var pow10 = [...]uint32{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// decimalLen returns the number of decimal digits of v.
func decimalLen(v uint32) int {
	v |= 1 // same digit count, and 0 counts as one digit
	// bitlen·log10(2) is floor(log10 v) or one more.
	t := bits.Len32(v) * 1233 >> 12
	if v < pow10[t] {
		return t
	}
	return t + 1
}

// handleSearch answers /search in every mode: parse and validate once,
// then hand the query to whatever this server fronts.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q, err := s.parseSearch(r.URL.Query())
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	s.queries.Add(1)
	var (
		surface searcher
		snap    *index.Snapshot
	)
	switch {
	case s.live != nil:
		surface = s.live
	case s.router != nil:
		surface = s.router
	default:
		snap = s.acquire()
		surface = snap.Index()
	}
	ans, err := surface.Search(r.Context(), q)
	if snap != nil {
		// Held for the query only — answers own their slices — so a
		// concurrent hot reload never changes the index mid-query and
		// never unmaps bytes a query is still reading.
		snap.Release()
	}
	if err != nil {
		status := http.StatusInternalServerError
		if s.router != nil {
			status = http.StatusServiceUnavailable // every shard failed
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	s.writeAnswer(w, q, ans)
}

// searcher is the query surface a server fronts: *index.Index (the
// current snapshot's), *index.Live, or a Router.
type searcher interface {
	Search(ctx context.Context, q index.Query) (index.Answer, error)
}

// writeAnswer writes the 200 response for q's answer; a routed server
// adds the partial-coverage keys and logs a partial answer. It is kept
// out of handleSearch so the response is not on the stack while the
// query runs: the request goroutine's stack starts small and grows by
// copying, and every frame it holds during the search costs that copy.
func (s *Server) writeAnswer(w http.ResponseWriter, q index.Query, ans index.Answer) {
	resp := searchResponse{
		Query:   q.Terms,
		Mode:    q.Mode,
		Docs:    ans.Docs,
		Ranked:  ans.Ranked,
		Matches: len(ans.Docs) + len(ans.Ranked),
		TopK:    ans.TopK,
	}
	if s.router != nil {
		partial := ans.Partial
		resp.Partial, resp.DegradedShards, resp.Shards = &partial, ans.Degraded, s.router.Shards()
		if ans.Partial {
			s.partial.Add(1)
			s.log.Printf("server: query %v: %d of %d shards degraded %v, results partial",
				q.Terms, len(ans.Degraded), resp.Shards, ans.Degraded)
		}
	}
	writeSearch(w, resp)
}

// parseSearch is the one parser and validator of /search parameters:
// q (tokenized, 1..MaxQueryTerms terms), mode (default "and"), and for
// topk k (default 10, at most MaxK) and algo.
func (s *Server) parseSearch(v url.Values) (index.Query, error) {
	q := index.Query{Mode: v.Get("mode"), Terms: index.Tokenize(v.Get("q"))}
	switch {
	case len(q.Terms) == 0:
		return q, errors.New("missing or empty q parameter")
	case len(q.Terms) > s.cfg.MaxQueryTerms:
		return q, fmt.Errorf("query has %d terms, limit is %d", len(q.Terms), s.cfg.MaxQueryTerms)
	case q.Mode == "":
		q.Mode = "and"
	case q.Mode == "topk":
		q.K, q.Algo = 10, v.Get("algo")
		if ks := v.Get("k"); ks != "" {
			k, err := strconv.Atoi(ks)
			if err != nil || k < 1 {
				return q, errors.New("bad k parameter")
			}
			q.K = k
		}
		if q.K > s.cfg.MaxK {
			return q, fmt.Errorf("k=%d exceeds limit %d", q.K, s.cfg.MaxK)
		}
	}
	return q, q.Validate()
}
