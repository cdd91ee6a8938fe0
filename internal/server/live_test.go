package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/index"
)

func newLiveServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	l, err := index.OpenLive(t.TempDir(), index.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	s := NewLive(l, cfg)
	s.ready.Store(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (int, map[string]interface{}) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if len(buf.Bytes()) > 0 {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("bad JSON %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, out
}

func TestLiveServerIngestSearchDelete(t *testing.T) {
	_, ts := newLiveServer(t, Config{})

	// Ingest three documents; each ack carries the assigned docid.
	ids := make([]float64, 0, 3)
	for i, text := range []string{"alpha beta", "beta gamma", "alpha gamma delta"} {
		code, out := postJSON(t, ts.URL+"/ingest", fmt.Sprintf(`{"text": %q}`, text))
		if code != http.StatusOK {
			t.Fatalf("ingest %d: status %d (%v)", i, code, out)
		}
		ids = append(ids, out["doc"].(float64))
	}
	if ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("docids %v, want [0 1 2]", ids)
	}

	get := func(path string) (int, map[string]interface{}) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	if code, out := get("/search?q=alpha&mode=and"); code != 200 || out["matches"].(float64) != 2 {
		t.Fatalf("search alpha: %d %v", code, out)
	}
	if code, out := get("/search?q=alpha+beta&mode=or"); code != 200 || out["matches"].(float64) != 3 {
		t.Fatalf("search or: %d %v", code, out)
	}
	if code, out := get("/search?q=gamma&mode=topk&k=2"); code != 200 || out["matches"].(float64) != 2 {
		t.Fatalf("search topk: %d %v", code, out)
	}

	// Delete doc 1 and verify it stops matching.
	if code, out := postJSON(t, ts.URL+"/delete", `{"doc": 1}`); code != 200 {
		t.Fatalf("delete: %d %v", code, out)
	}
	if code, out := get("/search?q=beta&mode=and"); code != 200 || out["matches"].(float64) != 1 {
		t.Fatalf("search after delete: %d %v", code, out)
	}
	if code, _ := postJSON(t, ts.URL+"/delete", `{"doc": 1}`); code != http.StatusNotFound {
		t.Fatalf("double delete: status %d, want 404", code)
	}
	if code, _ := postJSON(t, ts.URL+"/delete", `{"nope": true}`); code != http.StatusBadRequest {
		t.Fatalf("malformed delete: status %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/ingest", `{"text": "   "}`); code != http.StatusBadRequest {
		t.Fatalf("empty ingest: status %d, want 400", code)
	}

	// /reload force-seals; the answers must not move.
	if code, out := postJSON(t, ts.URL+"/reload", ""); code != 200 || out["status"] != "sealed" {
		t.Fatalf("seal: %d %v", code, out)
	}
	if code, out := get("/search?q=alpha&mode=and"); code != 200 || out["matches"].(float64) != 2 {
		t.Fatalf("search after seal: %d %v", code, out)
	}

	// /stats carries the live gauges; /healthz is ok.
	if code, out := get("/stats"); code != 200 {
		t.Fatalf("stats: %d", code)
	} else {
		live := out["live"].(map[string]interface{})
		if live["segments"].(float64) != 1 || out["documents"].(float64) != 2 {
			t.Fatalf("stats live shape: %v", out)
		}
	}
	if code, out := get("/healthz"); code != 200 || out["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, out)
	}

	// GET on a write endpoint is rejected.
	if code, _ := get("/ingest"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: status %d, want 405", code)
	}
}

// TestLiveServerIngestShed fills the write-admission gate and requires
// the overflow request to be shed with 429 + Retry-After.
func TestLiveServerIngestShed(t *testing.T) {
	s, ts := newLiveServer(t, Config{IngestQueue: 1})
	// Occupy the single admission slot directly, then send a request.
	s.ingestSem <- struct{}{}
	resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(`{"text": "alpha"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if s.IngestSheds() != 1 {
		t.Fatalf("ingestSheds = %d, want 1", s.IngestSheds())
	}
	<-s.ingestSem
	if code, _ := postJSON(t, ts.URL+"/ingest", `{"text": "alpha"}`); code != 200 {
		t.Fatalf("ingest after gate freed: status %d", code)
	}
}

// TestLiveServerDurableAcrossRestart acks writes through the HTTP
// surface, tears the server down, and requires a fresh server over the
// same directory to serve every acked write.
func TestLiveServerDurableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	l, err := index.OpenLive(dir, index.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewLive(l, Config{})
	s.ready.Store(true)
	ts := httptest.NewServer(s.Handler())
	for _, text := range []string{"alpha beta", "beta gamma"} {
		if code, out := postJSON(t, ts.URL+"/ingest", fmt.Sprintf(`{"text": %q}`, text)); code != 200 {
			t.Fatalf("ingest: %d %v", code, out)
		}
	}
	ts.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := index.OpenLive(dir, index.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	s2 := NewLive(l2, Config{})
	s2.ready.Store(true)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/search?q=beta&mode=and")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["matches"].(float64) != 2 {
		t.Fatalf("restarted server lost acked writes: %v", out)
	}
}

// TestLiveSearchAlgo: live /search validates algo like the static and
// routed front ends, and every pinned algorithm ranks a sealed live
// index exactly as auto does, reporting the segments' work counters.
func TestLiveSearchAlgo(t *testing.T) {
	s, ts := newLiveServer(t, Config{Logger: quiet})
	for i := 0; i < 200; i++ {
		text := fmt.Sprintf("alpha w%d %s", i%7, strings.Repeat("beta ", i%5))
		if _, err := s.Live().Add(text); err != nil {
			t.Fatal(err)
		}
		if i == 120 {
			if err := s.Live().Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Live().Seal(); err != nil {
		t.Fatal(err)
	}
	search := func(query string) (int, searchResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/search?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out searchResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out
	}
	if code, _ := search("q=beta&mode=topk&algo=bogus"); code != http.StatusBadRequest {
		t.Fatalf("algo=bogus: status %d, want 400", code)
	}
	_, auto := search("q=beta+w3&mode=topk&k=15&algo=auto")
	if len(auto.Ranked) != 15 {
		t.Fatalf("auto ranked %d results, want 15", len(auto.Ranked))
	}
	for _, algo := range []string{"bmw", "maxscore", "exhaustive"} {
		code, got := search("q=beta+w3&mode=topk&k=15&algo=" + algo)
		if code != http.StatusOK || !reflect.DeepEqual(got.Ranked, auto.Ranked) {
			t.Fatalf("algo=%s: status %d, ranked %v, want auto's %v", algo, code, got.Ranked, auto.Ranked)
		}
		if got.TopK == nil || got.TopK.Lists == 0 || got.TopK.BlocksTotal == 0 {
			t.Fatalf("algo=%s: no segment work counters: %+v", algo, got.TopK)
		}
	}
}
