package cfg

import (
	"reflect"
	"testing"

	"mcpart/internal/ir"
	"mcpart/internal/opt"
	"mcpart/internal/testprog"
)

// refLiveness holds per-block live-in and live-out virtual register sets.
type refLiveness struct {
	In  []map[ir.VReg]bool // indexed by block ID
	Out []map[ir.VReg]bool
}

// computeLivenessRef is the reference live-variable analysis: one map per
// block and set, iterated backwards to the least fixpoint.
func computeLivenessRef(f *ir.Func) *refLiveness {
	n := len(f.Blocks)
	use := make([]map[ir.VReg]bool, n)
	def := make([]map[ir.VReg]bool, n)
	for _, b := range f.Blocks {
		u, d := map[ir.VReg]bool{}, map[ir.VReg]bool{}
		for _, op := range b.Ops {
			for _, a := range op.Args {
				if a.IsReg() && !d[a.Reg] {
					u[a.Reg] = true
				}
			}
			if op.Dst != ir.NoReg {
				d[op.Dst] = true
			}
		}
		use[b.ID], def[b.ID] = u, d
	}
	lv := &refLiveness{
		In:  make([]map[ir.VReg]bool, n),
		Out: make([]map[ir.VReg]bool, n),
	}
	for i := 0; i < n; i++ {
		lv.In[i] = map[ir.VReg]bool{}
		lv.Out[i] = map[ir.VReg]bool{}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := lv.Out[b.ID]
			for _, s := range b.Succs {
				for r := range lv.In[s.ID] {
					if !out[r] {
						out[r] = true
						changed = true
					}
				}
			}
			in := lv.In[b.ID]
			for r := range use[b.ID] {
				if !in[r] {
					in[r] = true
					changed = true
				}
			}
			for r := range out {
				if !def[b.ID][r] && !in[r] {
					in[r] = true
					changed = true
				}
			}
		}
	}
	return lv
}

// refDefUse is the reference def-use result, with the defs of each
// register in a map.
type refDefUse struct {
	UsesOf    [][]int
	DefsOf    [][][]int
	DefsOfReg map[ir.VReg][]int
}

// computeDefUseRef is the reference def-use analysis: map-based liveness,
// a map of the latest local def per block, and a fresh list per read.
func computeDefUseRef(f *ir.Func) *refDefUse {
	lv := computeLivenessRef(f)
	du := &refDefUse{
		UsesOf:    make([][]int, f.NOps),
		DefsOf:    make([][][]int, f.NOps),
		DefsOfReg: map[ir.VReg][]int{},
	}
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			if op.Dst != ir.NoReg {
				du.DefsOfReg[op.Dst] = append(du.DefsOfReg[op.Dst], op.ID)
			}
		}
	}
	for _, b := range f.Blocks {
		local := map[ir.VReg]int{}
		for _, op := range b.Ops {
			du.DefsOf[op.ID] = make([][]int, len(op.Args))
			for i, a := range op.Args {
				if !a.IsReg() {
					continue
				}
				if d, ok := local[a.Reg]; ok {
					du.DefsOf[op.ID][i] = []int{d}
					du.UsesOf[d] = append(du.UsesOf[d], op.ID)
					continue
				}
				if lv.In[b.ID][a.Reg] || int(a.Reg) < f.NParams {
					defs := du.DefsOfReg[a.Reg]
					du.DefsOf[op.ID][i] = append([]int(nil), defs...)
					for _, d := range defs {
						du.UsesOf[d] = append(du.UsesOf[d], op.ID)
					}
				}
			}
			if op.Dst != ir.NoReg {
				local[op.Dst] = op.ID
			}
		}
	}
	for i := range du.UsesOf {
		du.UsesOf[i] = dedupInts(du.UsesOf[i])
	}
	return du
}

// TestDefUseMatchesReference pins the dense liveness and def-use tables to
// the map-based reference: the live-in sets of every block and DefsOf,
// UsesOf and DefsOfReg are equal on every function of testprog's programs,
// unoptimized and optimized.
func TestDefUseMatchesReference(t *testing.T) {
	funcs := testprog.Funcs(t, func(m *ir.Module) { opt.Optimize(m) })
	for _, f := range funcs {
		lv := computeLivenessRef(f)
		in, words := liveIn(f)
		for _, b := range f.Blocks {
			for r := 0; r < f.NRegs; r++ {
				if got := in[b.ID*words+r>>6]&(1<<(r&63)) != 0; got != lv.In[b.ID][ir.VReg(r)] {
					t.Fatalf("%s b%d: v%d live-in %v, reference %v", f.Name, b.ID, r, got, !got)
				}
			}
		}
		du, ref := ComputeDefUse(f), computeDefUseRef(f)
		if !reflect.DeepEqual(du.DefsOf, ref.DefsOf) {
			t.Fatalf("%s: DefsOf differs from the reference", f.Name)
		}
		if !reflect.DeepEqual(du.UsesOf, ref.UsesOf) {
			t.Fatalf("%s: UsesOf differs from the reference", f.Name)
		}
		if len(du.DefsOfReg) != f.NRegs {
			t.Fatalf("%s: %d DefsOfReg entries for %d registers", f.Name, len(du.DefsOfReg), f.NRegs)
		}
		for r, defs := range ref.DefsOfReg {
			if !reflect.DeepEqual(du.DefsOfReg[r], defs) {
				t.Fatalf("%s: DefsOfReg[v%d] = %v, reference %v", f.Name, r, du.DefsOfReg[r], defs)
			}
		}
		for r, defs := range du.DefsOfReg {
			if _, ok := ref.DefsOfReg[ir.VReg(r)]; !ok && defs != nil {
				t.Fatalf("%s: DefsOfReg[v%d] = %v, reference has none", f.Name, r, defs)
			}
		}
	}
	t.Logf("%d functions", len(funcs))
}
