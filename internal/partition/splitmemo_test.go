package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mcpart/internal/obs"
)

// splitCase is one seeded k-way split of a random graph under a base-k
// sweep of two anchors' parts, beside static anchors on every part.
type splitCase struct {
	name  string
	g     *Graph
	k     int
	opts  Options
	swept [2]int // the anchors whose parts the sweep varies
}

func splitCases() []splitCase {
	var cases []splitCase
	for _, k := range []int{4, 8} {
		for _, n := range []int{14, 60} {
			for _, withFrac := range []bool{false, true} {
				for seed := int64(1); seed <= 2; seed++ {
					g := randGraph(n, 4, 2, seed, false)
					rng := rand.New(rand.NewSource(seed))
					perm := rng.Perm(n)
					for p := 0; p < k; p++ {
						g.Fixed[perm[p]] = p
					}
					opts := Options{Tol: []float64{0.15, 0.3}}
					if withFrac {
						opts.Fractions = make([]float64, k)
						for p := range opts.Fractions {
							opts.Fractions[p] = float64(1 + p%3)
						}
					}
					cases = append(cases, splitCase{
						name: fmt.Sprintf("k=%d/n=%d/frac=%v/seed=%d", k, n, withFrac, seed),
						g:    g, k: k, opts: opts,
						swept: [2]int{perm[k], perm[k+1]},
					})
				}
			}
		}
	}
	return cases
}

// sweep returns c's graph with the swept anchors fixed to the digits of
// mask in base c.k. Consecutive masks often keep both anchors on the same
// side of a bisection, so its input repeats.
func (c splitCase) sweep(mask int) *Graph {
	g := *c.g
	g.Fixed = append([]int(nil), c.g.Fixed...)
	g.Fixed[c.swept[0]] = mask % c.k
	g.Fixed[c.swept[1]] = mask / c.k % c.k
	return &g
}

// TestSplitMemoMatchesKWay is the split memo's differential: every
// memoized k-way split of a base-k anchor sweep equals a fresh KWay, and
// the sweep hits the memo.
func TestSplitMemoMatchesKWay(t *testing.T) {
	for _, c := range splitCases() {
		t.Run(c.name, func(t *testing.T) {
			var memo SplitMemo
			reg := obs.NewRegistry()
			mopts := c.opts
			mopts.Obs = obs.New(reg, nil, nil)
			for mask := 0; mask < c.k*c.k; mask++ {
				g := c.sweep(mask)
				want, err := KWay(g, c.k, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := memo.KWay(g, []byte("g"), c.k, mopts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("mask %d: memoized split differs:\nmemo  %v\nfresh %v", mask, got, want)
				}
			}
			if reg.Snapshot().Value("fm_split_hits") == 0 {
				t.Error("no split-memo hits over the sweep")
			}
		})
	}
}

// TestSplitMemoConcurrent shares one memo between goroutines sweeping the
// same case in different orders; every result must equal a fresh KWay.
func TestSplitMemoConcurrent(t *testing.T) {
	c := splitCases()[4] // k = 4, n = 60
	masks := c.k * c.k
	want := make([][]int, masks)
	for mask := range want {
		var err error
		if want[mask], err = KWay(c.sweep(mask), c.k, c.opts); err != nil {
			t.Fatal(err)
		}
	}
	var memo SplitMemo
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < masks; i++ {
				mask := (i*(2*w+1) + w) % masks
				got, err := memo.KWay(c.sweep(mask), []byte("g"), c.k, c.opts)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[mask]) {
					t.Errorf("worker %d mask %d: memoized split differs", w, mask)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSplitMemoFallsThrough pins the memo's bypasses: a nil memo and
// k <= 2 run plain KWay and store nothing, and bad input still errors.
func TestSplitMemoFallsThrough(t *testing.T) {
	g := randGraph(30, 4, 1, 3, false)
	g.Fixed[5] = 0
	var memo SplitMemo
	for _, k := range []int{1, 2} {
		want, err := KWay(g, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := memo.KWay(g, nil, k, Options{})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: got %v, %v; want %v", k, got, err, want)
		}
	}
	if memo.Len() != 0 {
		t.Errorf("k <= 2 stored %d bisections, want 0", memo.Len())
	}
	var nilMemo *SplitMemo
	want, _ := KWay(g, 4, Options{})
	if got, err := nilMemo.KWay(g, nil, 4, Options{}); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("nil memo: got %v, %v; want %v", got, err, want)
	}
	if _, err := memo.KWay(g, nil, 6, Options{}); err == nil {
		t.Error("k=6 accepted")
	}
	bad := *g
	bad.Fixed = append([]int(nil), g.Fixed...)
	bad.Fixed[0] = 4
	if _, err := memo.KWay(&bad, nil, 4, Options{}); err == nil {
		t.Error("node fixed to part 4 of 4 accepted")
	}
}

// TestSplitMemoKeyCoversInputs pins the bisection key: every effective
// option a bisection reads, every fixed entry, the side path below the
// root and the caller's graph id must each change it. A bisection of a
// graph with no fixed nodes and equal shares has the same own input on
// both sides, so only the side path keeps the sub-splits apart.
func TestSplitMemoKeyCoversInputs(t *testing.T) {
	g := randGraph(12, 4, 2, 5, false)
	g.Fixed[2], g.Fixed[7] = 0, 1
	opts := Options{Tol: []float64{0.1, 0.2}, Fractions: []float64{0.5, 0.5}}
	key := func(g *Graph, opts Options) string { return string(appendSplitInput(nil, g, opts)) }
	base := key(g, opts)
	if key(g, opts) != base {
		t.Fatal("key is not deterministic")
	}
	for name, o := range map[string]Options{
		"Tol[0]":    {Tol: []float64{0.15, 0.2}, Fractions: opts.Fractions},
		"Tol[1]":    {Tol: []float64{0.1, 0.25}, Fractions: opts.Fractions},
		"Fractions": {Tol: opts.Tol, Fractions: []float64{0.4, 0.6}},
	} {
		if key(g, o) == base {
			t.Errorf("%s not in the key", name)
		}
	}
	for u := range g.Fixed {
		for _, f := range []int{-1, 0, 1} {
			if f == g.Fixed[u] {
				continue
			}
			h := *g
			h.Fixed = append([]int(nil), g.Fixed...)
			h.Fixed[u] = f
			if key(&h, opts) == base {
				t.Errorf("fixed entry %d = %d not in the key", u, f)
			}
		}
	}
	moved := *g
	moved.Fixed = append([]int(nil), g.Fixed...)
	moved.Fixed[2], moved.Fixed[3] = -1, 0
	if key(&moved, opts) == base {
		t.Error("fixed node indices not in the key")
	}
	free := randGraph(40, 4, 1, 6, false)
	for _, k := range []int{4, 8} {
		var memo SplitMemo
		for _, id := range []string{"a", "b"} {
			if _, err := memo.KWay(free, []byte(id), k, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		if want := 2 * (k - 1); memo.Len() != want {
			t.Errorf("k=%d: %d bisections memoized for two ids, want %d (side path or id missing from the key)", k, memo.Len(), want)
		}
	}
}
