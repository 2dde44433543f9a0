package cfg

import (
	"sort"

	"mcpart/internal/ir"
)

// DefUse records, for each op, the ops that consume each value it defines,
// and for each op, the defs that may reach each of its register uses. The
// lists share backing arrays with each other; callers only read them.
type DefUse struct {
	// UsesOf[opID] lists ops (by ID) that use the value defined by opID.
	UsesOf [][]int
	// DefsOf[opID] lists op IDs whose definitions may reach opID's uses,
	// one inner slice per register argument position.
	DefsOf [][][]int
	// DefsOfReg[r] lists all op IDs defining register r, in block order
	// (nil for a register nothing defines).
	DefsOfReg [][]int
}

// ComputeDefUse builds def-use chains with block-level precision: within a
// block, the nearest preceding definition reaches a use; across blocks, any
// definition of the register whose block can reach the use block (per
// liveness) is considered reaching. This is conservative but exact enough
// for graph construction, where an edge means "these two ops may need to
// communicate a value".
func ComputeDefUse(f *ir.Func) *DefUse {
	in, words := liveIn(f)
	du := &DefUse{
		UsesOf:    make([][]int, f.NOps),
		DefsOf:    make([][][]int, f.NOps),
		DefsOfReg: make([][]int, f.NRegs),
	}
	// Defs of each register, counted then filled into one backing array.
	ndefs := make([]int, f.NRegs)
	nargs := 0
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			nargs += len(op.Args)
			if op.Dst != ir.NoReg {
				ndefs[op.Dst]++
			}
		}
	}
	defs := make([]int, 0, f.NOps)
	for r, n := range ndefs {
		if n > 0 {
			du.DefsOfReg[r] = defs[len(defs) : len(defs) : len(defs)+n]
			defs = defs[:len(defs)+n]
		}
	}
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			if op.Dst != ir.NoReg {
				du.DefsOfReg[op.Dst] = append(du.DefsOfReg[op.Dst], op.ID)
			}
		}
	}
	// Per-block walk tracking the latest local def of each register: it is
	// localDef[r] while localAt[r] holds the block's stamp. An in-block
	// read gets a one-element list; an upwards-exposed read of a register
	// live into the block (or a parameter) shares DefsOfReg[r]: every def
	// of the register counts, conservatively. Parameters with no defs
	// yield an empty set.
	lists := make([][]int, nargs)
	local := make([]int, nargs)
	localAt, localDef := make([]int32, f.NRegs), make([]int, f.NRegs)
	nuses, nuse := make([]int, f.NOps), 0
	for bi, b := range f.Blocks {
		stamp := int32(bi + 1)
		live := in[b.ID*words : (b.ID+1)*words]
		for _, op := range b.Ops {
			args := lists[:len(op.Args):len(op.Args)]
			lists = lists[len(op.Args):]
			du.DefsOf[op.ID] = args
			for i, a := range op.Args {
				if !a.IsReg() {
					continue
				}
				r := a.Reg
				if localAt[r] == stamp {
					local[0] = localDef[r]
					args[i], local = local[:1:1], local[1:]
					nuses[localDef[r]]++
					nuse++
					continue
				}
				if live[r>>6]&(1<<(r&63)) != 0 || int(r) < f.NParams {
					args[i] = du.DefsOfReg[r]
					for _, d := range args[i] {
						nuses[d]++
					}
					nuse += len(args[i])
				}
			}
			if op.Dst != ir.NoReg {
				localAt[op.Dst], localDef[op.Dst] = stamp, op.ID
			}
		}
	}
	// Uses of each def, counted above and filled here, then sorted and
	// deduplicated.
	uses := make([]int, 0, nuse)
	for d, n := range nuses {
		if n > 0 {
			du.UsesOf[d] = uses[len(uses) : len(uses) : len(uses)+n]
			uses = uses[:len(uses)+n]
		}
	}
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			for _, ds := range du.DefsOf[op.ID] {
				for _, d := range ds {
					du.UsesOf[d] = append(du.UsesOf[d], op.ID)
				}
			}
		}
	}
	for i, us := range du.UsesOf {
		us = dedupInts(us)
		du.UsesOf[i] = us[:len(us):len(us)]
	}
	return du
}

// liveIn runs the classic backwards iterative live-variable analysis over
// f and returns the registers live into each block as one flat bitset:
// block b's set is in[b.ID*words:(b.ID+1)*words], register r its bit
// r&63 of word r>>6.
func liveIn(f *ir.Func) (in []uint64, words int) {
	n := len(f.Blocks)
	words = (f.NRegs + 63) / 64
	bits := make([]uint64, 3*n*words+words)
	in, use, def, out := bits[:n*words], bits[n*words:2*n*words], bits[2*n*words:3*n*words], bits[3*n*words:]
	for _, b := range f.Blocks {
		u, d := use[b.ID*words:(b.ID+1)*words], def[b.ID*words:(b.ID+1)*words]
		for _, op := range b.Ops {
			for _, a := range op.Args {
				if r := a.Reg; a.IsReg() && d[r>>6]&(1<<(r&63)) == 0 {
					u[r>>6] |= 1 << (r & 63)
				}
			}
			if r := op.Dst; r != ir.NoReg {
				d[r>>6] |= 1 << (r & 63)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		// Iterate blocks in reverse ID order for faster convergence.
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			clear(out)
			for _, s := range b.Succs {
				for w, x := range in[s.ID*words : (s.ID+1)*words] {
					out[w] |= x
				}
			}
			lo := b.ID * words
			for w := range out {
				if x := in[lo+w] | use[lo+w] | out[w]&^def[lo+w]; x != in[lo+w] {
					in[lo+w] = x
					changed = true
				}
			}
		}
	}
	return in, words
}

func dedupInts(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// Region is a unit of computation partitioning: a set of basic blocks that
// the operation partitioner considers together. Following RHOP, regions are
// the bodies of innermost loops (where most execution time concentrates);
// blocks outside any loop form singleton regions.
type Region struct {
	ID     int
	Func   *ir.Func
	Blocks []*ir.Block // in block-ID order
}

// FormRegions partitions a function's blocks into regions. Each block
// belongs to exactly one region: the innermost loop containing it, or a
// singleton. Regions are returned in order of their first block ID.
func FormRegions(f *ir.Func) []*Region {
	loops := Loops(f)
	// innermost[b] = innermost loop containing block b.
	innermost := make([]*Loop, len(f.Blocks))
	for _, l := range loops {
		for b := range l.Blocks {
			cur := innermost[b.ID]
			if cur == nil || l.Depth > cur.Depth {
				innermost[b.ID] = l
			}
		}
	}
	regionOf := map[*Loop]*Region{}
	var regions []*Region
	for _, b := range f.Blocks {
		l := innermost[b.ID]
		if l == nil {
			regions = append(regions, &Region{Func: f, Blocks: []*ir.Block{b}})
			continue
		}
		r := regionOf[l]
		if r == nil {
			r = &Region{Func: f}
			regionOf[l] = r
			regions = append(regions, r)
		}
		r.Blocks = append(r.Blocks, b)
	}
	sort.Slice(regions, func(i, j int) bool {
		return regions[i].Blocks[0].ID < regions[j].Blocks[0].ID
	})
	for i, r := range regions {
		r.ID = i
		sort.Slice(r.Blocks, func(a, b int) bool { return r.Blocks[a].ID < r.Blocks[b].ID })
	}
	return regions
}
