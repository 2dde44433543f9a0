package eval

import (
	"fmt"
	"math/bits"
)

// radix is the base-k positional encoding of data-object mappings that
// generalizes the 2-cluster bitmask: digit i (base k) of a mask is the home
// cluster of object i. At k=2 every operation below degenerates exactly to
// the bit arithmetic the sweep has always used — digit extraction is bit
// extraction, and the modular Gray code's changed-digit index is
// TrailingZeros64, that of the reflected binary Gray code — so 2-cluster
// masks, points, and golden outputs are unchanged to the byte.
type radix struct {
	k   int
	pow []uint64 // pow[i] = k^i; len n+1, guaranteed overflow-free
}

// newRadix builds the power table for n digits of base k, rejecting
// mapping spaces that do not fit a uint64 mask.
func newRadix(k, n int) (*radix, error) {
	if k < 1 {
		return nil, fmt.Errorf("eval: radix %d < 1", k)
	}
	r := &radix{k: k, pow: make([]uint64, n+1)}
	r.pow[0] = 1
	for i := 1; i <= n; i++ {
		hi, lo := bits.Mul64(r.pow[i-1], uint64(k))
		if hi != 0 {
			return nil, fmt.Errorf("eval: %d objects on %d clusters exceed 64-bit mapping masks", n, k)
		}
		r.pow[i] = lo
	}
	return r, nil
}

// count returns k^n as an int (the mapping-point count for n objects);
// callers must have sized n so this fits.
func (r *radix) count(n int) int { return int(r.pow[n]) }

// digit extracts digit i of mask.
func (r *radix) digit(mask uint64, i int) int {
	return int(mask / r.pow[i] % uint64(r.k))
}

// imbalanceOf is the byte-balance metric of a mapping: (max cluster bytes
// - min cluster bytes) / total, in [0,1]. At k=2 this is |b0-b1|/total,
// the paper's Figure 9 shading metric, computed with the identical float
// division.
func imbalanceOf(clusterBytes []int64, totalBytes int64) float64 {
	if totalBytes == 0 {
		return 0
	}
	lo, hi := clusterBytes[0], clusterBytes[0]
	for _, b := range clusterBytes[1:] {
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	return float64(hi-lo) / float64(totalBytes)
}

// grayStep returns the digit position that changes between Gray masks i-1
// and i (i >= 1): the count of trailing zero digits of i in base k. The
// changed digit always advances by +1 mod k.
func (r *radix) grayStep(i uint64) int {
	if r.k == 2 {
		return bits.TrailingZeros64(i)
	}
	t := 0
	for v := i; v%uint64(r.k) == 0; v /= uint64(r.k) {
		t++
	}
	return t
}
