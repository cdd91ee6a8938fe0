package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
)

// The benchmark owns its inputs: corpus, query sequences and write
// sequences all come from this file and a seed, never from the
// program's own generators, so no change to the program can change what
// is measured. The program receives only the files and requests built
// here.

const (
	vocabSize = 5000 // distinct terms; rank 0 is the most frequent
	zipfS     = 1.0  // term-frequency skew of the synthetic text
	docMinLen = 8    // tokens per document, inclusive bounds
	docMaxLen = 32
)

// newRand returns the generator for one input stream. Each stream gets
// its own salt so that, for example, drawing more queries never shifts
// the corpus.
func newRand(seed uint64, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, salt))
}

// zipf draws ranks 0..n-1 with P(rank) proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// vocabulary names each rank with a short token that survives the
// program's tokenizer unchanged (lower-case alphanumerics). Names are a
// seeded permutation, so lexical order says nothing about frequency.
func vocabulary(seed uint64) []string {
	r := newRand(seed, 1)
	perm := r.Perm(vocabSize)
	out := make([]string, vocabSize)
	for rank, p := range perm {
		out[rank] = "w" + strconv.FormatUint(uint64(p+1296), 36) // 1296 = 36^2: every name has 3+ letters
	}
	return out
}

// genDocs draws n documents of zipfian text over vocab from stream salt.
func genDocs(seed, salt uint64, n int, vocab []string) []string {
	r := newRand(seed, salt)
	z := newZipf(len(vocab), zipfS)
	docs := make([]string, n)
	var b strings.Builder
	for i := range docs {
		b.Reset()
		l := docMinLen + r.IntN(docMaxLen-docMinLen+1)
		for j := 0; j < l; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(vocab[z.draw(r)])
		}
		docs[i] = b.String()
	}
	return docs
}

// query is one read request: a mode ("and", "or", "topk") and terms.
// A one-term "and" is a point lookup.
type query struct {
	Mode  string
	Terms []string
	K     int
}

// path renders q as a /search request URI.
func (q query) path() string {
	var b strings.Builder
	b.WriteString("/search?q=")
	b.WriteString(strings.Join(q.Terms, "+"))
	b.WriteString("&mode=")
	b.WriteString(q.Mode)
	if q.Mode == "topk" {
		b.WriteString("&k=")
		b.WriteString(strconv.Itoa(q.K))
	}
	return b.String()
}

// distinctRanks draws n distinct ranks uniformly from [lo, hi).
func distinctRanks(r *rand.Rand, n, lo, hi int) []int {
	return distinct(n, func() int { return lo + r.IntN(hi-lo) })
}

// distinctZipf draws n distinct ranks, offset + a zipfian draw.
func distinctZipf(r *rand.Rand, z *zipf, offset, n int) []int {
	return distinct(n, func() int { return offset + z.draw(r) })
}

// distinct calls draw until it has n different values.
func distinct(n int, draw func() int) []int {
	seen := map[int]bool{}
	var out []int
	for len(out) < n {
		if x := draw(); !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func termsOf(vocab []string, ranks []int) []string {
	out := make([]string, len(ranks))
	for i, rk := range ranks {
		out[i] = vocab[rk]
	}
	return out
}
