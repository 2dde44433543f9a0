// Package cfg provides control-flow and data-flow analyses over the IR:
// reverse-postorder numbering, dominators, natural-loop detection, liveness,
// reaching definitions at the def-use level, and the region formation used
// by the region-based computation partitioner (regions are innermost loop
// bodies, with remaining blocks as singleton regions).
package cfg

import (
	"sort"

	"mcpart/internal/ir"
)

// RPO returns the function's blocks in reverse postorder from the entry.
// Unreachable blocks are appended after the reachable ones in ID order so
// every block appears exactly once.
func RPO(f *ir.Func) []*ir.Block {
	seen := make([]bool, len(f.Blocks))
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b.ID] = true
		for _, s := range b.Succs {
			if !seen[s.ID] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	out := make([]*ir.Block, 0, len(f.Blocks))
	for i := len(post) - 1; i >= 0; i-- {
		out = append(out, post[i])
	}
	for _, b := range f.Blocks {
		if !seen[b.ID] {
			out = append(out, b)
		}
	}
	return out
}

// Dominators computes the immediate dominator of every reachable block using
// the Cooper–Harvey–Kennedy iterative algorithm. idom[entry] = entry;
// unreachable blocks map to nil.
func Dominators(f *ir.Func) map[*ir.Block]*ir.Block {
	rpo := RPO(f)
	index := make(map[*ir.Block]int, len(rpo))
	for i, b := range rpo {
		index[b] = i
	}
	idom := make(map[*ir.Block]*ir.Block, len(rpo))
	entry := f.Entry()
	idom[entry] = entry

	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if idom[p] == nil {
					continue // pred not yet processed or unreachable
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b under the idom tree.
func Dominates(idom map[*ir.Block]*ir.Block, a, b *ir.Block) bool {
	for {
		if b == a {
			return true
		}
		next := idom[b]
		if next == nil || next == b {
			return a == b || a == next
		}
		b = next
	}
}

// Loop is a natural loop: a header block and the set of blocks in its body
// (including the header).
type Loop struct {
	Header *ir.Block
	Blocks map[*ir.Block]bool
	Depth  int   // nesting depth, 1 = outermost
	Parent *Loop // enclosing loop, nil for outermost
}

// Loops finds all natural loops via back edges (edge t->h where h dominates
// t), merging loops that share a header. Returned in order of increasing
// header block ID. Depth and Parent are filled by containment analysis.
func Loops(f *ir.Func) []*Loop {
	idom := Dominators(f)
	byHeader := make(map[*ir.Block]*Loop)
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if idom[b] != nil && Dominates(idom, s, b) {
				l := byHeader[s]
				if l == nil {
					l = &Loop{Header: s, Blocks: map[*ir.Block]bool{s: true}}
					byHeader[s] = l
				}
				// Walk backwards from the latch collecting the body.
				stack := []*ir.Block{b}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if l.Blocks[x] {
						continue
					}
					l.Blocks[x] = true
					stack = append(stack, x.Preds...)
				}
			}
		}
	}
	loops := make([]*Loop, 0, len(byHeader))
	for _, l := range byHeader {
		loops = append(loops, l)
	}
	sort.Slice(loops, func(i, j int) bool { return loops[i].Header.ID < loops[j].Header.ID })

	// Containment: loop A contains B if A's body includes B's header and
	// A != B. Parent = smallest containing loop.
	for _, b := range loops {
		var parent *Loop
		for _, a := range loops {
			if a == b || !a.Blocks[b.Header] {
				continue
			}
			if parent == nil || len(a.Blocks) < len(parent.Blocks) {
				parent = a
			}
		}
		b.Parent = parent
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	return loops
}
