package partition

import (
	"encoding/binary"
	"math"

	"mcpart/internal/memo"
)

// SplitMemo memoizes the bisections inside KWay's recursive bisection by
// their exact input, so repeated k-way splits that agree on a bisection's
// input reuse its result. A bisection's input is its graph, its fixed
// assignments and its effective options. The caller names the root graph
// with an id; every other graph in the recursion is a pure function of its
// parent's graph and the parent bisection's result, so a child's key is
// its parent's key, then the side it lies on, then its own fixed nodes and
// options. The key therefore determines the bisection exactly, and a hit
// returns the halves the bisection would compute.
//
// Options.Obs is not in the key: it only counts, never steers. The zero
// value is an empty memo; it is safe for concurrent use.
type SplitMemo struct {
	halves memo.Table[[]uint8]
}

// Len returns the number of memoized bisections.
func (m *SplitMemo) Len() int { return m.halves.Len() }

// KWay is KWay with every bisection of the recursion memoized in m. id
// must identify g's node weights and adjacency: two calls on one memo with
// equal ids must pass graphs that differ at most in Fixed. A nil memo, or
// k <= 2, runs plain KWay (at k = 2 the single bisection is the whole
// split, which a caller memoizes more cheaply by its own key).
func (m *SplitMemo) KWay(g *Graph, id []byte, k int, opts Options) ([]int, error) {
	if m == nil || k <= 2 {
		return KWay(g, k, opts)
	}
	if err := checkKWay(g, k); err != nil {
		return nil, err
	}
	sc := &kwayScratch{memo: m}
	sc.key = append(binary.AppendUvarint(make([]byte, 0, 256), uint64(len(id))), id...)
	part := kwayRec(sc, g, k, opts)
	if sc.hits > 0 && opts.Obs != nil {
		opts.Obs.Counter("fm_split_hits").Add(sc.hits)
	}
	return part, nil
}

// bisect runs g's bisection, or recalls it from the memo when sc has one.
// With a memo, sc.key holds the bisection's key prefix on entry (the root
// id, or the parent's key and the side) and its full key on return.
func (sc *kwayScratch) bisect(g *Graph, opts Options) []int {
	if sc.memo == nil || g.Len() == 0 {
		return bisectUnchecked(g, opts)
	}
	sc.key = appendSplitInput(sc.key, g, opts)
	var half []int
	packed, hit, err := sc.memo.halves.Do(sc.key, func() ([]uint8, error) {
		half = bisectUnchecked(g, opts)
		packed := make([]uint8, len(half))
		for u, s := range half {
			packed[u] = uint8(s)
		}
		return packed, nil
	})
	if err != nil { // the bisection this call waited on panicked
		return bisectUnchecked(g, opts)
	}
	if hit {
		sc.hits++
		half = make([]int, len(packed))
		for u, s := range packed {
			half[u] = int(s)
		}
	}
	return half
}

// appendSplitInput appends the part of a bisection's key the graph
// identity does not fix: a count of g's fixed nodes, an (index, part) pair
// per fixed node in index order, then the options a bisection reads —
// both part shares and the tolerance of each weight dimension — with
// defaults resolved. Node count and dimensions are fixed by the graph
// identity, so every field is self-delimiting.
func appendSplitInput(buf []byte, g *Graph, opts Options) []byte {
	nf := 0
	for _, f := range g.Fixed {
		if f != -1 {
			nf++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(nf))
	for u, f := range g.Fixed {
		if f != -1 {
			buf = append(binary.AppendUvarint(buf, uint64(u)), byte(f))
		}
	}
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(opts.frac(0)))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(opts.frac(1)))
	for d := 0; d < g.NumW; d++ {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(opts.tol(d)))
	}
	return buf
}
