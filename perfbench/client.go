package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// conn is one HTTP client holding exactly one keep-alive connection to
// one server. The load model caps the benchmark at nproc connections in
// total, so every request goes through one of these.
type conn struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and body. The body is
// valid until the next call on c.
func (c *conn) do(method, path, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// answerDigest hashes the answer carried by a /search response body:
// the integers of its "docs" array, or of its "ranked" array for top-k
// (doc, score pairs; the field names hold no digits). It also returns
// how many integers it hashed. The scan reads the compact JSON the
// servers write; a reader decodes the body before failing an answer
// the scan disagrees with, so a formatting change can never pass a
// wrong answer or fail a right one.
func answerDigest(body []byte, mode string) (uint64, int) {
	key := []byte(`"docs":[`)
	if mode == "topk" {
		key = []byte(`"ranked":[`)
	}
	h := newHash()
	i := bytes.Index(body, key)
	if i < 0 {
		return h.sum(), 0
	}
	var v uint64
	inNum := false
	for _, c := range body[i+len(key):] {
		if c >= '0' && c <= '9' {
			v = v*10 + uint64(c-'0')
			inNum = true
			continue
		}
		if inNum {
			h.add(v)
			v, inNum = 0, false
		}
		if c == ']' {
			break
		}
	}
	return h.sum(), int(h.n)
}

// decodeDigest decodes body as JSON and hashes its answer.
func decodeDigest(body []byte) (uint64, error) {
	var a struct {
		Docs   []uint32 `json:"docs"`
		Ranked []scored `json:"ranked"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return 0, fmt.Errorf("decoding /search response: %w", err)
	}
	return digest(a.Docs, a.Ranked), nil
}
