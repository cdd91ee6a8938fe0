package ops

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// refUnionMany folds UnionSorted pairwise as the oracle.
func refUnionMany(lists [][]uint32) []uint32 {
	var cur []uint32
	for _, l := range lists {
		cur = UnionSorted(cur, l)
	}
	return cur
}

// TestUnionManyHeapPath: wide unions (>= heapWidth lists) take the heap
// merge and must match the pairwise oracle, duplicates collapsed.
func TestUnionManyHeapPath(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 6; trial++ {
		k := heapWidth + rng.Intn(12)
		lists := make([][]uint32, k)
		for i := range lists {
			lists[i] = gen.Uniform(rng.Intn(3000), 1<<16, int64(600+trial*50+i))
		}
		want := refUnionMany(lists)
		got := UnionMany(lists)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d values, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: value %d mismatch", trial, i)
			}
		}
	}
}

// TestUnionManyHeapEdgeCases: empty operands, identical lists, single
// survivors.
func TestUnionManyHeapEdgeCases(t *testing.T) {
	same := []uint32{5, 10, 15}
	lists := make([][]uint32, heapWidth+2)
	for i := range lists {
		if i%2 == 0 {
			lists[i] = same
		} // odd entries stay nil
	}
	got := UnionMany(lists)
	if len(got) != 3 || got[0] != 5 || got[2] != 15 {
		t.Fatalf("got %v", got)
	}
	// All empty.
	empty := make([][]uint32, heapWidth)
	if got := UnionMany(empty); len(got) != 0 {
		t.Fatalf("all-empty union = %v", got)
	}
}

// checkUnionMany asserts which strategy the density rule selects for
// lists, then compares UnionMany with the pairwise oracle.
func checkUnionMany(t *testing.T, name string, lists [][]uint32, wantBitset bool) {
	t.Helper()
	if got := bitsetWords(lists) > 0; got != wantBitset {
		t.Fatalf("%s: bitset selected = %v, want %v", name, got, wantBitset)
	}
	matchUnionOracle(t, name, lists)
}

// matchUnionOracle compares UnionMany on lists with the pairwise oracle.
func matchUnionOracle(t *testing.T, name string, lists [][]uint32) {
	t.Helper()
	want := refUnionMany(lists)
	got := UnionMany(lists)
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: value %d = %d, want %d", name, i, got[i], want[i])
		}
	}
}

// TestUnionManySparseMerge keeps the merge strategies covered: lists
// over a 2^30 universe are far below bitsetDensity, so narrow unions
// take the pairwise merge and wide ones the heap merge.
func TestUnionManySparseMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 8; trial++ {
		k := 2 + rng.Intn(2*heapWidth)
		lists := make([][]uint32, k)
		for i := range lists {
			lists[i] = gen.Uniform(rng.Intn(2000), 1<<30, int64(900+trial*50+i))
		}
		lists[0] = append(lists[0], 1<<30) // pin the universe
		checkUnionMany(t, fmt.Sprintf("trial %d (k=%d)", trial, k), lists, false)
	}
}

// TestUnionManyBitsetEdges covers the bitset union at word boundaries,
// on degenerate operands, and on both sides of the density threshold.
func TestUnionManyBitsetEdges(t *testing.T) {
	seq := func(lo, hi uint32) []uint32 {
		var out []uint32
		for v := lo; v <= hi; v++ {
			out = append(out, v)
		}
		return out
	}
	// n values ending at last: the smallest set reaching the threshold
	// when n*bitsetDensity == last+1.
	tail := func(n int, last uint32) []uint32 { return seq(last-uint32(n)+1, last) }
	cases := []struct {
		name   string
		lists  [][]uint32
		bitset bool
	}{
		{"id 0 only", [][]uint32{{0}, {0}}, true},
		{"ids 63 and 64", [][]uint32{{63}, {64}, {0, 63}}, true},
		{"last id ends a word", [][]uint32{{0, 1, 2}, {62, 63}}, true},
		{"last id starts a word", [][]uint32{{0, 1}, {63, 64}}, true},
		{"last id at 2^7-1", [][]uint32{{0, 5, 64, 127}, {1, 126}}, true},
		{"all empty", [][]uint32{{}, nil, {}}, false},
		{"all empty wide", make([][]uint32, heapWidth+1), false},
		{"single list", [][]uint32{seq(0, 64)}, true},
		{"one non-empty", [][]uint32{nil, {3, 64, 65}, {}}, true},
		{"identical", [][]uint32{seq(0, 200), seq(0, 200), seq(0, 200)}, true},
		{"identical wide", [][]uint32{seq(10, 99), seq(10, 99), seq(10, 99), seq(10, 99),
			seq(10, 99), seq(10, 99), seq(10, 99), seq(10, 99), seq(10, 99)}, true},
		{"at threshold", [][]uint32{tail(2, 4*bitsetDensity-1), tail(2, 2*bitsetDensity-1)}, true},
		{"below threshold", [][]uint32{tail(2, 4*bitsetDensity), tail(2, 2*bitsetDensity-1)}, false},
		{"at threshold, max id 2^16-1", [][]uint32{{0}, tail(1<<16/bitsetDensity-1, 1<<16-1)}, true},
		{"below threshold, max id 2^16", [][]uint32{{0}, tail(1<<16/bitsetDensity-1, 1<<16)}, false},
	}
	for _, c := range cases {
		checkUnionMany(t, c.name, c.lists, c.bitset)
	}
}

// FuzzUnionMany compares UnionMany with the pairwise oracle on
// arbitrary strictly increasing lists. The first byte picks the operand
// count, the second a gap scale (0 gives dense lists that take the
// bitset, large scales sparse ones that merge); each following byte
// pair appends one value to the list the first byte picks, past that
// list's last value by a gap the second byte sets.
func FuzzUnionMany(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 1, 1, 0, 0, 1, 63})
	f.Add([]byte{9, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0})
	f.Add([]byte{3, 20, 0, 200, 1, 7, 2, 9, 0, 255})
	f.Add([]byte{12, 9, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 1 + int(data[0])%(2*heapWidth)
		shift := uint(data[1]) % 25
		lists := make([][]uint32, k)
		next := make([]uint64, k)
		for i := 2; i+1 < len(data); i += 2 {
			l := int(data[i]) % k
			v := next[l] + uint64(data[i+1])<<shift
			if v > 1<<32-1 {
				continue
			}
			lists[l] = append(lists[l], uint32(v))
			next[l] = v + 1
		}
		matchUnionOracle(t, fmt.Sprintf("k=%d shift=%d", k, shift), lists)
	})
}

// BenchmarkUnionManyWide compares realistic wide unions (k=16) through
// the public entry point.
func BenchmarkUnionManyWide(b *testing.B) {
	lists := make([][]uint32, 16)
	for i := range lists {
		lists[i] = gen.Uniform(20000, 1<<20, int64(700+i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = UnionMany(lists)
	}
}

var benchSink []uint32

// BenchmarkUnionManyDensity times the two union strategies on the same
// uniform operands at falling densities (ids of the universe per input
// value): the measurement behind bitsetDensity.
func BenchmarkUnionManyDensity(b *testing.B) {
	const universe = 1 << 20
	for _, k := range []int{2, 4, 16} {
		for _, spread := range []int{2, 8, 16, 32, 64, 128, 512, 2048} {
			lists := make([][]uint32, k)
			for i := range lists {
				lists[i] = gen.Uniform(universe/spread/k, universe, int64(800+i))
			}
			name := fmt.Sprintf("k=%d/ids_per_value=%d", k, spread)
			b.Run(name+"/bitset", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink = unionBitset(lists, universe/64)
				}
			})
			b.Run(name+"/merge", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink = unionMerge(lists)
				}
			})
		}
	}
}
