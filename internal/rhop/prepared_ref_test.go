package rhop

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mcpart/internal/cfg"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/opt"
	"mcpart/internal/profile"
	"mcpart/internal/sched"
	"mcpart/internal/testprog"
)

type edgeKey struct{ def, use int }

// computeSlackRef is the reference slack computation: per-block maps of
// ASAP and ALAP times, and a map of the slack per (def, use) arc. A
// loop-carried read of an op the walk has not reached reads the map's 0.
func computeSlackRef(region *cfg.Region, du *cfg.DefUse, ops []*ir.Op) map[edgeKey]int64 {
	slack := map[edgeKey]int64{}
	var crossEdges []edgeKey
	var maxSlack int64
	for _, b := range region.Blocks {
		asap := map[int]int64{}
		var blockLen int64
		for _, op := range b.Ops {
			var start int64
			for argI := range op.Args {
				for _, defID := range du.DefsOf[op.ID][argI] {
					if ops[defID].Block == b {
						if t := asap[defID] + int64(machine.Latency(ops[defID].Opcode)); t > start {
							start = t
						}
					}
				}
			}
			asap[op.ID] = start
			if end := start + int64(machine.Latency(op.Opcode)); end > blockLen {
				blockLen = end
			}
		}
		alap := map[int]int64{}
		for i := len(b.Ops) - 1; i >= 0; i-- {
			op := b.Ops[i]
			latest := blockLen - int64(machine.Latency(op.Opcode))
			for _, useID := range du.UsesOf[op.ID] {
				if ops[useID].Block == b {
					if t := alap[useID] - int64(machine.Latency(op.Opcode)); t < latest {
						latest = t
					}
				}
			}
			alap[op.ID] = latest
		}
		for _, op := range b.Ops {
			for argI := range op.Args {
				for _, defID := range du.DefsOf[op.ID][argI] {
					key := edgeKey{defID, op.ID}
					if ops[defID].Block == b {
						s := alap[op.ID] - (asap[defID] + int64(machine.Latency(ops[defID].Opcode)))
						if s < 0 {
							s = 0
						}
						slack[key] = s
						if s > maxSlack {
							maxSlack = s
						}
					} else {
						crossEdges = append(crossEdges, key)
					}
				}
			}
		}
	}
	for _, key := range crossEdges {
		slack[key] = maxSlack
	}
	return slack
}

// newRegionPreRef is the reference for a region's dependence arcs and
// live-in home tables, built with maps.
func newRegionPreRef(region *cfg.Region, du *cfg.DefUse, ops []*ir.Op, prof *profile.Profile) *regionPre {
	pre := &regionPre{region: region}
	idx := map[int]int32{}
	for _, b := range region.Blocks {
		for _, op := range b.Ops {
			idx[op.ID] = int32(len(pre.regionOps))
			pre.regionOps = append(pre.regionOps, op)
		}
	}
	if len(pre.regionOps) == 0 {
		return pre
	}
	ext := map[int]bool{}
	addExt := func(id int) {
		if !ext[id] {
			ext[id] = true
			pre.extRefs = append(pre.extRefs, int32(id))
		}
	}
	slack := computeSlackRef(region, du, ops)
	maxSlack := int64(1)
	for _, s := range slack {
		if s > maxSlack {
			maxSlack = s
		}
	}
	pre.arcStart = make([]int32, 0, len(pre.regionOps)+1)
	for _, op := range pre.regionOps {
		pre.arcStart = append(pre.arcStart, int32(len(pre.arcs)))
		for argI := range op.Args {
			for _, defID := range du.DefsOf[op.ID][argI] {
				w := maxSlack + 1 - slack[edgeKey{defID, op.ID}]
				if w < 1 {
					w = 1
				}
				if node, ok := idx[defID]; ok {
					pre.arcs = append(pre.arcs, arc{other: node, w: int32(w), kind: arcIntra})
				} else {
					pre.arcs = append(pre.arcs, arc{other: int32(defID), w: int32(w), kind: arcDef})
					addExt(defID)
				}
			}
		}
		if op.Dst != ir.NoReg {
			for _, useID := range du.UsesOf[op.ID] {
				if _, ok := idx[useID]; !ok {
					w := scaleFreq(blockFreq(prof, ops[useID].Block))
					pre.arcs = append(pre.arcs, arc{other: int32(useID), w: int32(w), kind: arcUse})
					addExt(useID)
				}
			}
		}
	}
	pre.arcStart = append(pre.arcStart, int32(len(pre.arcs)))
	seen := map[int]bool{}
	seenReg := map[ir.VReg]bool{}
	liveIns := sched.BlockLiveIns(region.Func)
	for _, b := range region.Blocks {
		for _, r := range liveIns[b.ID] {
			if seenReg[r] {
				continue
			}
			seenReg[r] = true
			pre.homeRegs = append(pre.homeRegs, r)
			for _, id := range du.DefsOfReg[r] {
				if _, in := idx[id]; !in && !seen[id] {
					seen[id] = true
					pre.extHomeRefs = append(pre.extHomeRefs, int32(id))
				}
			}
		}
	}
	sort.Slice(pre.extHomeRefs, func(i, j int) bool { return pre.extHomeRefs[i] < pre.extHomeRefs[j] })
	sort.Slice(pre.homeRegs, func(i, j int) bool { return pre.homeRegs[i] < pre.homeRegs[j] })
	pre.homeDefs = make([][]homeDef, len(pre.homeRegs))
	for i, r := range pre.homeRegs {
		for _, id := range du.DefsOfReg[r] {
			w := int64(1)
			if fq := blockFreq(prof, ops[id].Block); fq > 1 {
				w = fq
			}
			pre.homeDefs[i] = append(pre.homeDefs[i], homeDef{id: int32(id), w: w})
		}
	}
	return pre
}

// loopCarriedReads counts the in-block reads of f that a def at or after
// the reading op in the same block reaches, through the loop's back edge.
func loopCarriedReads(f *ir.Func, du *cfg.DefUse, ops []*ir.Op) int {
	pos := make([]int, f.NOps)
	for _, b := range f.Blocks {
		for i, op := range b.Ops {
			pos[op.ID] = i
		}
	}
	n := 0
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			for _, defs := range du.DefsOf[op.ID] {
				for _, d := range defs {
					if ops[d].Block == b && pos[d] >= pos[op.ID] {
						n++
					}
				}
			}
		}
	}
	return n
}

// TestPrepareMatchesReference pins Prepare's dense region tables to the
// map-based reference: per region, the dependence arcs with their slack
// weights, extRefs, extHomeRefs, homeRegs and homeDefs are equal on every
// function of testprog's programs, unoptimized and optimized, under a
// seeded synthetic profile. The programs include loop-carried in-block
// reads, whose ASAP and ALAP lookups must read 0 as the reference's maps
// do.
func TestPrepareMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	carried := 0
	for _, f := range testprog.Funcs(t, func(m *ir.Module) { opt.Optimize(m) }) {
		prof := profile.NewProfile()
		for _, b := range f.Blocks {
			if fq := rng.Int63n(1 << uint(rng.Intn(20))); fq > 0 {
				prof.BlockFreq[b] = fq
			}
		}
		p := Prepare(f, prof, nil)
		du, ops := cfg.ComputeDefUse(f), f.OpsByID()
		carried += loopCarriedReads(f, du, ops)
		for ri, pre := range p.pre {
			ref := newRegionPreRef(pre.region, du, ops, prof)
			for _, c := range []struct {
				name      string
				got, want any
			}{
				{"arcs", pre.arcs, ref.arcs},
				{"arcStart", pre.arcStart, ref.arcStart},
				{"extRefs", pre.extRefs, ref.extRefs},
				{"extHomeRefs", pre.extHomeRefs, ref.extHomeRefs},
				{"homeRegs", pre.homeRegs, ref.homeRegs},
				{"homeDefs", pre.homeDefs, ref.homeDefs},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Fatalf("%s region %d: %s = %v, reference %v", f.Name, ri, c.name, c.got, c.want)
				}
			}
		}
	}
	if carried == 0 {
		t.Fatal("no loop-carried in-block read among the programs")
	}
}
