package main

import (
	"sort"
	"strings"
)

// naive is the benchmark's reference index: uncompressed posting lists
// built directly from the generated text, queried with the plainest
// algorithms that give the answer. It shares no code with the program.
// Generated text is lower-case alphanumeric words separated by single
// spaces, so splitting on whitespace tokenizes it exactly as the
// program does.
type naive struct {
	post map[string][]uint32 // ascending doc ids
	freq map[string][]uint16 // occurrences of the term in each doc of post
	dead map[uint32]bool     // deleted docs
	max  uint32              // one past the largest doc id added

	distinct map[uint32]int // distinct terms per doc
	postings int            // (term, live doc) pairs
}

func newNaive() *naive {
	return &naive{post: map[string][]uint32{}, freq: map[string][]uint16{}, dead: map[uint32]bool{}, distinct: map[uint32]int{}}
}

// add indexes text as doc. Doc ids must arrive in ascending order.
func (n *naive) add(doc uint32, text string) {
	counts := map[string]uint16{}
	var order []string
	for _, t := range strings.Fields(text) {
		if counts[t] == 0 {
			order = append(order, t)
		}
		counts[t]++
	}
	for _, t := range order {
		n.post[t] = append(n.post[t], doc)
		n.freq[t] = append(n.freq[t], counts[t])
	}
	if doc+1 > n.max {
		n.max = doc + 1
	}
	n.distinct[doc] = len(order)
	n.postings += len(order)
}

func (n *naive) del(doc uint32) {
	if !n.dead[doc] {
		n.dead[doc] = true
		n.postings -= n.distinct[doc]
	}
}

// scored is one ranked answer.
type scored struct {
	Doc   uint32
	Score uint32
}

// answer evaluates q. Boolean modes return docs; topk returns ranked.
func (n *naive) answer(q query) (docs []uint32, ranked []scored) {
	switch q.Mode {
	case "and":
		return n.and(q.Terms), nil
	case "or":
		return n.or(q.Terms), nil
	default:
		return nil, n.topk(q.Terms, q.K)
	}
}

func (n *naive) and(terms []string) []uint32 {
	lists := make([][]uint32, len(terms))
	for i, t := range terms {
		lists[i] = n.post[t]
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	out := []uint32{}
	for _, d := range lists[0] {
		in := !n.dead[d]
		for _, l := range lists[1:] {
			if !in {
				break
			}
			j := sort.Search(len(l), func(k int) bool { return l[k] >= d })
			in = j < len(l) && l[j] == d
		}
		if in {
			out = append(out, d)
		}
	}
	return out
}

func (n *naive) or(terms []string) []uint32 {
	hit := make([]bool, n.max)
	for _, t := range terms {
		for _, d := range n.post[t] {
			hit[d] = true
		}
	}
	out := []uint32{}
	for d, h := range hit {
		if h && !n.dead[uint32(d)] {
			out = append(out, uint32(d))
		}
	}
	return out
}

// topk scores every document holding a query term by the sum of
// min(freq, 255) over the terms it holds, and keeps the k best by score
// descending, then doc id ascending.
func (n *naive) topk(terms []string, k int) []scored {
	score := map[uint32]uint32{}
	for _, t := range terms {
		fs := n.freq[t]
		for i, d := range n.post[t] {
			if !n.dead[d] {
				score[d] += uint32(min(fs[i], 255))
			}
		}
	}
	all := make([]scored, 0, len(score))
	for d, s := range score {
		all = append(all, scored{d, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Doc < all[j].Doc
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// digest hashes an answer the way the client hashes a response: FNV-1a
// over the integers of the docs array, or of the ranked array as
// doc, score pairs.
func digest(docs []uint32, ranked []scored) uint64 {
	h := newHash()
	for _, d := range docs {
		h.add(uint64(d))
	}
	for _, r := range ranked {
		h.add(uint64(r.Doc))
		h.add(uint64(r.Score))
	}
	return h.sum()
}

// fnv is FNV-1a over 64-bit integers, fed one value at a time.
type fnv struct {
	h uint64
	n uint64
}

func newHash() fnv { return fnv{h: 14695981039346656037} }

func (f *fnv) add(v uint64) {
	for i := 0; i < 8; i++ {
		f.h ^= v & 0xff
		f.h *= 1099511628211
		v >>= 8
	}
	f.n++
}

func (f *fnv) sum() uint64 { return f.h ^ f.n*0x9e3779b97f4a7c15 }
