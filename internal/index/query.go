package index

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ops"
)

// Query is one request to any of the system's query surfaces — a
// static Index, a Live index, a sharded router — which all answer it
// through a Search(ctx, Query) method: the paper's AND / OR / top-k
// queries as one layer over whichever codecs store the lists.
type Query struct {
	Mode  string   // "and", "or" or "topk"
	Terms []string // already tokenized (see Tokenize)
	K     int      // topk: how many results
	Algo  string   // topk: "" or "auto", "exhaustive", "maxscore", "bmw"
}

// Answer is the reply to a Query, in the id space of the surface that
// answered it.
type Answer struct {
	Docs   []uint32       // and / or: matching documents, ascending
	Ranked []Result       // topk: best first (score desc, doc asc)
	TopK   *ops.TopKStats // topk: the evaluation's work counters, when reported

	// Partial marks a routed answer missing the shards in Degraded:
	// Docs and Ranked are then exact over the shards that answered.
	Partial  bool
	Degraded []int
}

// Result is one ranked document.
type Result = ops.ScoredDoc

// topkModes maps the pinned top-k algorithm names to their engine
// modes; "" and "auto" pick per index (see TopKWith).
var topkModes = map[string]ops.TopKMode{
	"exhaustive": ops.TopKExhaustive,
	"maxscore":   ops.TopKMaxScore,
	"bmw":        ops.TopKBlockMax,
}

// Validate reports whether q names a known mode and, for top-k, a
// positive k and a known algorithm. Its messages are phrased for the
// client that sent the query.
func (q Query) Validate() error {
	switch q.Mode {
	case "and", "or":
		return nil
	case "topk":
	default:
		return errors.New("mode must be and | or | topk")
	}
	if q.K < 1 {
		return fmt.Errorf("k=%d: must be at least 1", q.K)
	}
	if _, ok := topkModes[q.Algo]; !ok && q.Algo != "" && q.Algo != "auto" {
		return errors.New("algo must be auto | exhaustive | maxscore | bmw")
	}
	return nil
}

// Search answers q: a conjunction, a disjunction, or a ranked top-k
// with its work counters.
func (idx *Index) Search(ctx context.Context, q Query) (Answer, error) {
	if err := q.Validate(); err != nil {
		return Answer{}, err
	}
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	switch q.Mode {
	case "and":
		docs, err := idx.Conjunctive(q.Terms...)
		return Answer{Docs: docs}, err
	case "or":
		docs, err := idx.Disjunctive(q.Terms...)
		return Answer{Docs: docs}, err
	}
	stats := new(ops.TopKStats)
	ranked, err := idx.TopKWith(q.Algo, q.K, stats, q.Terms...)
	return Answer{Ranked: ranked, TopK: stats}, err
}
