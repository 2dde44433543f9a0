package rhop

import (
	"mcpart/internal/cfg"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/profile"
	"mcpart/internal/sched"
)

// This file holds the from-scratch schedule estimator, the reference the
// refinement loops' regionEval must match exactly: it walks every block
// from its first op on every call.

// EstimateRegionCost estimates the profile-weighted cycle contribution of a
// region under assignment asg without running the full list scheduler: per
// block, the maximum of the per-cluster resource bound, the intercluster
// bus bound, and the dependence-critical path including move latencies.
func EstimateRegionCost(f *ir.Func, region *cfg.Region, prof *profile.Profile,
	mcfg *machine.Config, asg []int) int64 {
	var est estScratch
	return est.regionCost(f, region, prof, mcfg, asg, sched.NewLoopCtx(f))
}

// regionCost is EstimateRegionCost with the function's loop context given
// and the scratch reused.
func (es *estScratch) regionCost(f *ir.Func, region *cfg.Region, prof *profile.Profile,
	mcfg *machine.Config, asg []int, lc *sched.LoopCtx) int64 {
	home := es.hs.HomeClustersFreq(f, asg, mcfg.NumClusters(), func(b *ir.Block) int64 {
		return blockFreq(prof, b)
	})
	var total int64
	for _, b := range region.Blocks {
		total += blockFreq(prof, b) * es.blockLen(b, asg, home, lc, mcfg)
	}
	return total
}

// estScratch is the schedule estimator's reusable working memory: dense
// tables indexed by op ID, register, and (source entity, cluster) move key,
// generation-stamped so a new call starts fresh in O(1).
type estScratch struct {
	hs    sched.HomeScratch
	gen   int64
	ready []int64 // by op ID: completion time estimate (valid when the
	// register's defGen stamp is current — a def is always estimated
	// before any of its uses)
	lastDef []int // by register: op ID of latest def
	defGen  []int64
	counts  []int   // [cluster][kind] flattened; zeroed per call
	moveSrc []int   // by move key: source cluster
	moveGen []int64 // by move key
	touched []int   // move keys recorded this call, in first-touch order

	// minLat is mcfg.MinMoveLat() memoized per config pointer: the drain
	// bound below charges the cheapest possible hop for the last move in
	// flight, which on non-uniform topologies is the admissible choice
	// (and equals MoveLatency exactly on bus/ring/mesh/uniform matrices).
	minLatCfg *machine.Config
	minLat    int
}

// prepare sizes the tables for f on a k-cluster machine and starts a new
// generation.
func (es *estScratch) prepare(f *ir.Func, k int) {
	if len(es.ready) < f.NOps {
		es.ready = make([]int64, f.NOps)
	}
	if len(es.lastDef) < f.NRegs {
		es.lastDef = make([]int, f.NRegs)
		es.defGen = make([]int64, f.NRegs)
	}
	if n := k * int(machine.NumFUKinds); len(es.counts) < n {
		es.counts = make([]int, n)
	} else {
		clear(es.counts[:n])
	}
	// Move keys: (def op ID, cluster) or (NOps + reg, cluster).
	if n := (f.NOps + f.NRegs) * k; len(es.moveSrc) < n {
		es.moveSrc = make([]int, n)
		es.moveGen = make([]int64, n)
	}
	es.touched = es.touched[:0]
	es.gen++
}

// blockLen is the schedule-length estimate for one block. It tracks the
// list scheduler's three limiting factors but ignores second-order
// interactions, which keeps refinement fast.
func (es *estScratch) blockLen(b *ir.Block, asg []int, home []int, lc *sched.LoopCtx, mcfg *machine.Config) int64 {
	k := mcfg.NumClusters()
	f := b.Func
	es.prepare(f, k)
	if es.minLatCfg != mcfg {
		es.minLatCfg = mcfg
		es.minLat = mcfg.MinMoveLat()
	}
	addMove := func(entity, to, src int) {
		key := entity*k + to
		if es.moveGen[key] != es.gen {
			es.moveGen[key] = es.gen
			es.touched = append(es.touched, key)
		}
		es.moveSrc[key] = src
	}
	var length int64 = 1
	for _, op := range b.Ops {
		c := asg[op.ID]
		es.counts[c*int(machine.NumFUKinds)+int(machine.KindOf(op.Opcode))]++
		var start int64
		for _, a := range op.Args {
			if !a.IsReg() {
				continue
			}
			if d := int(a.Reg); es.defGen[d] == es.gen {
				def := es.lastDef[d]
				t := es.ready[def]
				if asg[def] != c {
					addMove(def, c, asg[def])
					t += int64(mcfg.MoveLat(asg[def], c))
				}
				if t > start {
					start = t
				}
			} else if int(a.Reg) < len(home) {
				if hc := home[a.Reg]; hc != sched.EverywhereHome && hc != c &&
					!(lc != nil && lc.FreeLiveIn(b, a.Reg)) {
					addMove(f.NOps+int(a.Reg), c, hc)
					if t := int64(mcfg.MoveLat(hc, c)); t > start {
						start = t
					}
				}
			}
		}
		done := start + int64(machine.Latency(op.Opcode))
		es.ready[op.ID] = done
		if done > length {
			length = done
		}
		if op.Dst != ir.NoReg {
			es.defGen[op.Dst] = es.gen
			es.lastDef[op.Dst] = op.ID
		}
	}
	// Moves occupy an integer-unit issue slot on their sending cluster.
	for _, key := range es.touched {
		es.counts[es.moveSrc[key]*int(machine.NumFUKinds)+int(machine.FUInt)]++
	}
	for c := 0; c < k; c++ {
		for kind := machine.FUKind(0); kind < machine.NumFUKinds; kind++ {
			cnt := es.counts[c*int(machine.NumFUKinds)+int(kind)]
			if cnt == 0 {
				continue
			}
			units := mcfg.Units(c, kind)
			if units == 0 {
				units = 1
			}
			if rb := int64((cnt + units - 1) / units); rb > length {
				length = rb
			}
		}
	}
	if n := len(es.touched); n > 0 {
		if bb := int64((n+mcfg.MoveBandwidth-1)/mcfg.MoveBandwidth) + int64(es.minLat); bb > length {
			length = bb
		}
	}
	return length
}
