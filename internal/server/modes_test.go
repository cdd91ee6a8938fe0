package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codecs"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/shard"
)

// The tests in this file run one table against all three front ends —
// static, live and routed — so the modes cannot diverge again. They
// live outside package server because routed servers come from shard,
// which imports server.

var quiet = log.New(io.Discard, "", 0)

func buildIndex(t *testing.T, docs []string) *index.Index {
	t.Helper()
	codec, err := codecs.ByName("Roaring")
	if err != nil {
		t.Fatal(err)
	}
	b := index.NewBuilder(codec)
	for _, d := range docs {
		b.AddDocument(d)
	}
	idx, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// deadReplica fails every query; it stands in for a lost shard.
type deadReplica struct{}

func (deadReplica) Search(context.Context, shard.Request) (shard.Result, error) {
	return shard.Result{}, errors.New("replica down")
}
func (deadReplica) Health(context.Context) error { return errors.New("replica down") }
func (deadReplica) Name() string                 { return "dead" }

// newRouter partitions docs over n in-process shards; the shards listed
// in dead get a failing replica instead.
func newRouter(t *testing.T, docs []string, n int, dead ...int) *shard.Router {
	t.Helper()
	parts, err := shard.Partition(docs, n)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([][]shard.Backend, n)
	for s, part := range parts {
		backends[s] = []shard.Backend{&shard.IndexBackend{Idx: buildIndex(t, part)}}
	}
	for _, s := range dead {
		backends[s] = []shard.Backend{deadReplica{}}
	}
	r, err := shard.NewRouter(shard.RouterConfig{}, backends)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// newLive ingests docs into a fresh live index in order — so live ids
// equal static ids — sealing after the first half, so answers merge a
// sealed segment with the mutable one.
func newLive(t *testing.T, docs []string) *index.Live {
	t.Helper()
	l, err := index.OpenLive(t.TempDir(), index.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	for i, d := range docs {
		if i == len(docs)/2 {
			if err := l.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

type frontEnd struct {
	name string
	h    http.Handler
}

// frontEnds serves docs three ways under cfg: static, live, and routed
// over 3 shards.
func frontEnds(t *testing.T, docs []string, cfg server.Config) []frontEnd {
	t.Helper()
	cfg.Logger = quiet
	return []frontEnd{
		{"static", server.New(buildIndex(t, docs), cfg).Handler()},
		{"live", server.NewLive(newLive(t, docs), cfg).Handler()},
		{"routed", shard.NewServer(newRouter(t, docs, 3), cfg).Handler()},
	}
}

var smallDocs = []string{
	"compressed bitmap indexes",
	"compressed inverted lists",
	"bitmap and inverted list compression compression",
}

func status(h http.Handler, path string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code
}

// TestSearchErrors: every front end rejects the same bad requests with
// 400 — live included for a bad algo, routed included for a k beyond
// the limit its shards share.
func TestSearchErrors(t *testing.T) {
	for _, fe := range frontEnds(t, smallDocs, server.Config{MaxQueryTerms: 4, MaxK: 50}) {
		for _, path := range []string{
			"/search",                        // missing q
			"/search?q=x&mode=banana",        // bad mode
			"/search?q=x&mode=topk&k=zero",   // bad k
			"/search?q=x&mode=topk&k=-3",     // negative k
			"/search?q=...&mode=and",         // tokenizes to nothing
			"/search?q=a+b+c+d+e",            // more than MaxQueryTerms terms
			"/search?q=x&mode=topk&k=51",     // k over MaxK
			"/search?q=x&mode=topk&algo=bad", // unknown algorithm
		} {
			if code := status(fe.h, path); code != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", fe.name, path, code)
			}
		}
		if code := status(fe.h, "/search?q=bitmap&mode=topk&k=50&algo=bmw"); code != http.StatusOK {
			t.Errorf("%s: valid top-k at the limit: status %d", fe.name, code)
		}
	}
}

// TestURLTooLong: every front end enforces the request-URI limit.
func TestURLTooLong(t *testing.T) {
	for _, fe := range frontEnds(t, smallDocs, server.Config{MaxURLBytes: 64}) {
		if code := status(fe.h, "/search?q="+strings.Repeat("x", 100)); code != http.StatusRequestURITooLong {
			t.Errorf("%s: status %d, want 414", fe.name, code)
		}
	}
}

// TestServingGaugesInEveryMode: /stats carries the shared serving
// gauges in every mode, and /readyz reports readiness the same way.
func TestServingGaugesInEveryMode(t *testing.T) {
	for _, fe := range frontEnds(t, smallDocs, server.Config{}) {
		rec := httptest.NewRecorder()
		fe.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var st map[string]interface{}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("%s: /stats: %v", fe.name, err)
		}
		for _, key := range []string{"inFlight", "sheds", "ready", "queries", "latency", "statuses"} {
			if _, ok := st[key]; !ok {
				t.Errorf("%s: /stats lacks %q: %v", fe.name, key, st)
			}
		}
		if code := status(fe.h, "/readyz"); code != http.StatusServiceUnavailable {
			t.Errorf("%s: /readyz before serving: %d, want 503", fe.name, code)
		}
	}
}

// TestSearchEncodingRouted runs the byte-identity check through a
// routed server at 1 and 3 shards, and with a dead shard so the
// partial and degradedShards keys are exercised too.
func TestSearchEncodingRouted(t *testing.T) {
	docs := server.EncodeDocs()
	for _, c := range []struct {
		n    int
		dead []int
	}{{1, nil}, {3, nil}, {3, []int{1}}} {
		r := newRouter(t, docs, c.n, c.dead...)
		h := shard.NewServer(r, shard.ServerConfig{Logger: quiet}).Handler()
		server.CheckSearchEncoding(t, h, c.n, func(q index.Query) (index.Answer, error) {
			return r.Search(context.Background(), q)
		})
	}
}

// TestSearchDifferential serves one corpus static, live (half sealed)
// and routed (3 shards) and requires a seeded sweep of and / or / topk
// × algorithm to return identical docs and rankings from all three.
func TestSearchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%d", i)
	}
	// Skewed term draws with repeats, so lists range from dense to
	// rare and top-k scores differ by term frequency.
	word := func() string { return vocab[int(float64(len(vocab))*rng.Float64()*rng.Float64())] }
	docs := make([]string, 700)
	for i := range docs {
		words := make([]string, 3+rng.Intn(8))
		for j := range words {
			words[j] = word()
		}
		docs[i] = strings.Join(words, " ")
	}
	var servers []*httptest.Server
	for _, fe := range frontEnds(t, docs, server.Config{}) {
		ts := httptest.NewServer(fe.h)
		defer ts.Close()
		servers = append(servers, ts)
	}
	type answer struct {
		Docs   []uint32       `json:"docs"`
		Ranked []index.Result `json:"ranked"`
	}
	nonEmpty := 0
	for i := 0; i < 150; i++ {
		terms := make([]string, 1+rng.Intn(4))
		for j := range terms {
			terms[j] = word()
		}
		v := url.Values{"q": {strings.Join(terms, " ")}}
		v.Set("mode", []string{"and", "or", "topk"}[i%3])
		if i%3 == 2 {
			v.Set("k", fmt.Sprint([]int{1, 5, 20, 300}[rng.Intn(4)]))
			v.Set("algo", []string{"", "auto", "exhaustive", "maxscore", "bmw"}[rng.Intn(5)])
		}
		var want answer
		for s, ts := range servers {
			resp, err := http.Get(ts.URL + "/search?" + v.Encode())
			if err != nil {
				t.Fatal(err)
			}
			var got answer
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %v: status %d, %v", []string{"static", "live", "routed"}[s], v, resp.StatusCode, err)
			}
			if s == 0 {
				want = got
				if len(got.Docs)+len(got.Ranked) > 0 {
					nonEmpty++
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v differs from static:\n got %+v\nwant %+v", []string{"static", "live", "routed"}[s], v, got, want)
			}
		}
	}
	if nonEmpty < 100 {
		t.Fatalf("only %d of 150 queries matched anything; the sweep is too sparse", nonEmpty)
	}
}
