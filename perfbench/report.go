package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// cacheStats is the decoded-posting cache counters bvserve reports.
type cacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Bytes  int64 `json:"bytes"`
}

// fetchCacheStats sums the decoded-cache counters of every static
// bvserve in d (live mode and the router have no decoded cache).
func fetchCacheStats(d *deployment) (cacheStats, error) {
	var sum cacheStats
	if d.liveDir != "" {
		return sum, nil
	}
	for _, p := range d.procs {
		if strings.HasPrefix(p.name, "bvrouter") {
			continue
		}
		c := newConn(p.base)
		status, body, err := c.do(http.MethodGet, "/stats", "")
		c.close()
		if err != nil || status != http.StatusOK {
			return sum, fmt.Errorf("%s /stats: status %d: %v", p.name, status, err)
		}
		var st struct {
			PostingCache cacheStats `json:"postingCache"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return sum, fmt.Errorf("%s /stats: %w", p.name, err)
		}
		sum.Hits += st.PostingCache.Hits
		sum.Misses += st.PostingCache.Misses
		sum.Bytes += st.PostingCache.Bytes
	}
	return sum, nil
}

// share is n of total as a fraction (0 when total is 0).
func share(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// shareLine reports the workload properties an end-to-end run can see:
// answers over 10k documents, top-k queries, and decoded-cache hits.
func shareLine(reads []*read, pool []query, cache cacheStats) string {
	var big, topk int64
	for _, r := range reads {
		q := pool[r.q]
		if q.Mode == "topk" {
			topk++
		} else if r.n > 10000 {
			big++
		}
	}
	n := int64(len(reads))
	return fmt.Sprintf("shares: responses_over_10k_docs=%.4f topk_queries=%.4f decoded_cache_hits=%.4f (of %d reads, %d cache lookups)",
		share(big, n), share(topk, n), share(cache.Hits, cache.Hits+cache.Misses), n, cache.Hits+cache.Misses)
}
