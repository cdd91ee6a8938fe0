package server

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
	"strconv"

	"repro/internal/index"
	"repro/internal/ops"
)

// Handler builds the full route set. Application routes (/search,
// /stats, /reload, Config.Routes) run inside the validation, load
// shedding, and timeout middleware; the probes /healthz and /readyz
// bypass those gates so they stay answerable under full load. Logging
// and panic recovery wrap everything.
func (s *Server) Handler() http.Handler {
	app := http.NewServeMux()
	if s.live != nil {
		app.HandleFunc("/search", s.handleLiveSearch)
		app.HandleFunc("/stats", s.handleLiveStats)
		app.HandleFunc("/reload", s.handleLiveSeal)
		app.HandleFunc("/ingest", s.handleIngest)
		app.HandleFunc("/delete", s.handleDelete)
	} else {
		app.HandleFunc("/search", s.handleSearch)
		app.HandleFunc("/stats", s.handleStats)
		app.HandleFunc("/reload", s.handleReload)
	}
	if s.cfg.Routes != nil {
		s.cfg.Routes(app)
	}
	inner := s.withRequestTimeout(app)
	inner = s.limitConcurrency(inner)
	inner = s.validateURL(inner)

	root := http.NewServeMux()
	if s.live != nil {
		root.HandleFunc("/healthz", s.handleLiveHealthz)
	} else {
		root.HandleFunc("/healthz", s.handleHealthz)
	}
	root.HandleFunc("/readyz", s.handleReadyz)
	root.Handle("/", inner)
	return s.logRequests(s.recoverPanics(root))
}

// handleHealthz is the liveness probe: the process is up and able to
// answer HTTP. It additionally reports whether the served index is
// degraded — opened in salvage mode with sections quarantined — so
// operators monitoring /healthz see corruption the moment a degraded
// index starts serving. Degraded is still 200: the process is alive
// and serving what it can; see the corruption-recovery runbook.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.acquire()
	defer snap.Release()
	h := snap.Index().Health()
	if !h.Degraded {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":              "degraded",
		"quarantinedSections": h.QuarantinedSections,
		"quarantinedTerms":    h.QuarantinedTerms,
		"quarantinedImpacts":  h.QuarantinedImpacts,
	})
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

// handleStats reports the served index shape plus serving-side gauges.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.acquire()
	defer snap.Release()
	idx := snap.Index()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"documents":       idx.Docs(),
		"terms":           idx.Terms(),
		"compressedBytes": idx.SizeBytes(),
		"inFlight":        s.inFlight.Load(),
		"reloads":         s.Reloads(),
		"generation":      s.Generation(),
		"sheds":           s.Sheds(),
		"ready":           s.Ready(),
		"health":          idx.Health(),
		"postingCache":    s.CacheStats(),
		"latency":         s.LatencySummary(),
		"statuses":        s.StatusCounts(),
	})
}

// searchResponse is the /search JSON shape. TopK carries the pruning
// work counters for ranked queries, so callers (and the load harness)
// can see how many blocks the chosen algorithm actually decoded.
type searchResponse struct {
	Query   []string       `json:"query"`
	Mode    string         `json:"mode"`
	Docs    []uint32       `json:"docs,omitempty"`
	Ranked  []index.Result `json:"ranked,omitempty"`
	Matches int            `json:"matches"`
	TopK    *ops.TopKStats `json:"topk,omitempty"`
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
	var ranked, topk []byte
	if len(resp.Ranked) > 0 {
		ranked, _ = json.Marshal(resp.Ranked)
	}
	if resp.TopK != nil {
		topk, _ = json.Marshal(resp.TopK)
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

// handleSearch answers conjunctive/disjunctive/top-k queries against
// the current index snapshot. The snapshot is acquired once per request
// and released when the response is written, so a concurrent hot reload
// never changes the index mid-query and never unmaps bytes a query is
// still reading.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	snap := s.acquire()
	defer snap.Release()
	idx := snap.Index()
	terms := index.Tokenize(r.URL.Query().Get("q"))
	if len(terms) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing or empty q parameter"})
		return
	}
	if len(terms) > s.cfg.MaxQueryTerms {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("query has %d terms, limit is %d", len(terms), s.cfg.MaxQueryTerms),
		})
		return
	}
	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = "and"
	}
	resp := searchResponse{Query: terms, Mode: mode}
	switch mode {
	case "and":
		docs, err := idx.Conjunctive(terms...)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		resp.Docs, resp.Matches = docs, len(docs)
	case "or":
		docs, err := idx.Disjunctive(terms...)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		resp.Docs, resp.Matches = docs, len(docs)
	case "topk":
		k := 10
		if ks := r.URL.Query().Get("k"); ks != "" {
			var err error
			if k, err = strconv.Atoi(ks); err != nil || k < 1 {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad k parameter"})
				return
			}
		}
		if k > s.cfg.MaxK {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("k=%d exceeds limit %d", k, s.cfg.MaxK),
			})
			return
		}
		algo := r.URL.Query().Get("algo")
		switch algo {
		case "", "auto", "exhaustive", "maxscore", "bmw":
		default:
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": "algo must be auto | exhaustive | maxscore | bmw",
			})
			return
		}
		var stats ops.TopKStats
		ranked, err := idx.TopKWith(algo, k, &stats, terms...)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		resp.Ranked, resp.Matches = ranked, len(ranked)
		resp.TopK = &stats
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "mode must be and | or | topk"})
		return
	}
	writeSearch(w, resp)
}
