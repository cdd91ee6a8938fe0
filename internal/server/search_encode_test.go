package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/index"
)

// encodeDocs returns a corpus whose terms need JSON and HTML escaping
// (<, &, an inner quote, non-ASCII) and whose hit lists run past four
// decimal digits of doc id.
func encodeDocs() []string {
	docs := make([]string, 1200)
	for i := range docs {
		words := []string{"common"}
		for _, w := range []struct {
			every int
			term  string
		}{{2, "even"}, {3, "<b>"}, {5, "a&b"}, {7, `say"hi`}, {11, "café"}, {13, "日本"}} {
			if i%w.every == 0 {
				words = append(words, w.term)
			}
		}
		docs[i] = strings.Join(words, " ")
	}
	return docs
}

// encodeQueries covers and, or and topk answers, with hits and empty.
var encodeQueries = []struct{ mode, q, k string }{
	{"and", "common even", ""},
	{"and", "<b> a&b", ""},
	{"and", `café say"hi`, ""},
	{"and", "common zzz", ""},
	{"", "日本 even", ""},
	{"or", "even <b>", ""},
	{"or", "a&b café zzz", ""},
	{"or", "zzz", ""},
	{"or", "common", ""},
	{"topk", "even <b> café", "5"},
	{"topk", `a&b say"hi 日本`, ""},
	{"topk", "zzz", "3"},
}

// searchFunc answers one query the way the handler under test should.
type searchFunc func(q index.Query) (index.Answer, error)

// checkSearchEncoding sends every encodeQueries request through h over a
// real listener and asserts the body is byte-identical to
// json.NewEncoder(...).Encode of the response for the answer want
// computes, sent with its exact Content-Length rather than chunked.
// shards > 0 marks a routed server, whose responses carry the partial,
// degradedShards and shards keys.
func checkSearchEncoding(t *testing.T, h http.Handler, shards int, want searchFunc) {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	for _, c := range encodeQueries {
		v := url.Values{"q": {c.q}}
		if c.mode != "" {
			v.Set("mode", c.mode)
		}
		q := index.Query{Mode: c.mode, Terms: index.Tokenize(c.q)}
		if q.Mode == "" {
			q.Mode = "and"
		}
		if q.Mode == "topk" {
			q.K = 10
		}
		if c.k != "" {
			v.Set("k", c.k)
			q.K, _ = strconv.Atoi(c.k)
		}
		resp, err := http.Get(ts.URL + "/search?" + v.Encode())
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: status %d: %s", c, resp.StatusCode, body)
		}
		ans, err := want(q)
		if err != nil {
			t.Fatal(err)
		}
		exp := searchResponse{
			Query:   q.Terms,
			Mode:    q.Mode,
			Docs:    ans.Docs,
			Ranked:  ans.Ranked,
			Matches: len(ans.Docs) + len(ans.Ranked),
			TopK:    ans.TopK,
		}
		if shards > 0 {
			exp.Partial, exp.DegradedShards, exp.Shards = &ans.Partial, ans.Degraded, shards
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(exp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, buf.Bytes()) {
			t.Fatalf("%v: body differs from encoding/json\n got: %s\nwant: %s", c, body, buf.Bytes())
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%v: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				c, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if got := resp.Header.Get("Content-Type"); got != "application/json" {
			t.Fatalf("%v: Content-Type %q", c, got)
		}
	}
}

// TestSearchEncodingStatic runs the byte-identity check through the
// full handler of a static server.
func TestSearchEncodingStatic(t *testing.T) {
	idx := buildIndex(t, encodeDocs()...)
	s := New(idx, Config{Logger: quiet})
	checkSearchEncoding(t, s.Handler(), 0, func(q index.Query) (index.Answer, error) {
		return idx.Search(context.Background(), q)
	})
}

// TestSearchEncodingLive runs the byte-identity check through the full
// handler of a live server.
func TestSearchEncodingLive(t *testing.T) {
	s, ts := newLiveServer(t, Config{Logger: quiet})
	for i, d := range encodeDocs()[:300] {
		body, _ := json.Marshal(map[string]string{"text": d})
		if code, out := postJSON(t, ts.URL+"/ingest", string(body)); code != http.StatusOK {
			t.Fatalf("ingest %d: %d %v", i, code, out)
		}
		if i == 150 {
			if err := s.Live().Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkSearchEncoding(t, s.Handler(), 0, func(q index.Query) (index.Answer, error) {
		return s.Live().Search(context.Background(), q)
	})
}

// TestWriteSearchDigitBoundaries checks the docs array and its up-front
// sizing at every decimal-length boundary of a uint32.
func TestWriteSearchDigitBoundaries(t *testing.T) {
	docs := []uint32{0, 1}
	for p := uint64(10); p <= math.MaxUint32; p *= 10 {
		docs = append(docs, uint32(p-1), uint32(p))
	}
	docs = append(docs, math.MaxUint32)
	for _, d := range docs {
		if got, want := decimalLen(d), len(strconv.FormatUint(uint64(d), 10)); got != want {
			t.Fatalf("decimalLen(%d) = %d, want %d", d, got, want)
		}
	}
	resp := searchResponse{Query: []string{"q"}, Mode: "or", Docs: docs, Matches: len(docs)}
	rec := httptest.NewRecorder()
	writeSearch(rec, resp)
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("got %s\nwant %s", rec.Body.Bytes(), want.Bytes())
	}
	if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(want.Len()) {
		t.Fatalf("Content-Length %s, want %d", cl, want.Len())
	}
}
