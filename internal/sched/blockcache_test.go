package sched

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/mclang"
	"mcpart/internal/obs"
	"mcpart/internal/opt"
	"mcpart/internal/pointsto"
	"mcpart/internal/profile"
)

// refListSchedule is the list scheduler as first written, kept as the
// oracle of listSchedule: every cycle rescans all nodes for the ready ones
// and sorts them with sort.Slice. It schedules nodes in place (setting
// prio and start) and returns the length and the bus-busy cycle count.
func refListSchedule(nodes []node, cfg *machine.Config) (length, busBusy int) {
	n := len(nodes)
	succs := make([][]dep, n)
	npreds := make([]int, n)
	for i := range nodes {
		npreds[i] = len(nodes[i].preds)
		for _, p := range nodes[i].preds {
			succs[p.from] = append(succs[p.from], dep{from: i, lat: p.lat})
		}
	}
	indeg := append([]int(nil), npreds...)
	var order []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, s := range succs[order[head]] {
			if indeg[s.from]--; indeg[s.from] == 0 {
				order = append(order, s.from)
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		nd := &nodes[order[i]]
		nd.prio = int64(nd.lat)
		for _, s := range succs[order[i]] {
			if p := int64(s.lat) + nodes[s.from].prio; p > nd.prio {
				nd.prio = p
			}
		}
	}
	earliest := make([]int, n)
	done := make([]bool, n)
	stride := cfg.NumClusters() * int(machine.NumFUKinds)
	var usage, bus []int
	slot := func(t, cluster int, kind machine.FUKind) *int {
		return &usage[t*stride+cluster*int(machine.NumFUKinds)+int(kind)]
	}
	length = 1
	for t, unscheduled := 0, n; unscheduled > 0; t++ {
		usage = append(usage, make([]int, stride)...)
		bus = append(bus, 0)
		var ready []int
		for i := range nodes {
			if !done[i] && npreds[i] == 0 && earliest[i] <= t {
				ready = append(ready, i)
			}
		}
		sort.Slice(ready, func(a, b int) bool {
			x, y := &nodes[ready[a]], &nodes[ready[b]]
			if x.prio != y.prio {
				return x.prio > y.prio
			}
			return ready[a] < ready[b]
		})
		for _, i := range ready {
			nd := &nodes[i]
			if *slot(t, nd.cluster, nd.kind) >= cfg.Units(nd.cluster, nd.kind) {
				continue
			}
			if nd.isMove && bus[t] >= cfg.MoveBandwidth {
				continue
			}
			*slot(t, nd.cluster, nd.kind)++
			if nd.isMove {
				if bus[t] == 0 {
					busBusy++
				}
				bus[t]++
			}
			nd.start = t
			done[i] = true
			unscheduled--
			if end := t + nd.lat; end > length {
				length = end
			}
			for _, s := range succs[i] {
				npreds[s.from]--
				if e := t + s.lat; e > earliest[s.from] {
					earliest[s.from] = e
				}
			}
		}
	}
	return length, busBusy
}

// compileSuite compiles every bundled program the way the evaluation
// pipeline does (unrolled, optimized, with points-to sets on memory ops).
func compileSuite(t *testing.T) []*ir.Module {
	t.Helper()
	var mods []*ir.Module
	for _, b := range bench.All() {
		m, err := mclang.CompileUnrolled(b.Source, b.Name, 4)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		opt.Optimize(m)
		pointsto.Analyze(m)
		mods = append(mods, m)
	}
	return mods
}

// randomAssignment places every op of f on a random cluster that has a
// unit of its kind.
func randomAssignment(rng *rand.Rand, f *ir.Func, cfg *machine.Config) []int {
	asg := make([]int, f.NOps)
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			var ok []int
			for c := 0; c < cfg.NumClusters(); c++ {
				if cfg.Units(c, machine.KindOf(op.Opcode)) > 0 {
					ok = append(ok, c)
				}
			}
			asg[op.ID] = ok[rng.Intn(len(ok))]
		}
	}
	return asg
}

// TestListScheduleMatchesReference pins the candidate-list scheduler to
// the rescanning oracle: over every block of every bundled program, under
// seeded random assignments and live-in homes on bus, heterogeneous, mesh
// and ring machines, the length, move count, bus-busy cycles and every
// node's start cycle agree.
func TestListScheduleMatchesReference(t *testing.T) {
	machines := []*machine.Config{machine.Paper2Cluster(5), machine.Heterogeneous2(5), machine.Mesh4(5), machine.Ring8(5)}
	sc, ref := NewScratch(), NewScratch()
	blocks := 0
	for _, m := range compileSuite(t) {
		for _, cfg := range machines {
			rng := rand.New(rand.NewSource(int64(len(m.Funcs))*31 + int64(cfg.NumClusters())))
			for seed := 0; seed < 2; seed++ {
				for _, f := range m.Funcs {
					lc := NewLoopCtx(f)
					asg := randomAssignment(rng, f, cfg)
					home := make([]int, f.NRegs)
					for r := range home {
						home[r] = rng.Intn(cfg.NumClusters()+1) - 1
					}
					for _, b := range f.Blocks {
						ref.buildNodes(b, asg, home, lc, cfg)
						want := BlockResult{Length: 1}
						if len(ref.nodes) > 0 {
							want.Length, want.BusBusy = refListSchedule(ref.nodes, cfg)
						}
						for i := range ref.nodes {
							if ref.nodes[i].isMove {
								want.Moves++
							}
						}
						got, _ := sc.ScheduleBlockCtx(b, asg, home, lc, cfg)
						if got != want {
							t.Fatalf("%s %s b%d on %s: got %+v, reference %+v", m.Name, f.Name, b.ID, cfg.Name, got, want)
						}
						for i := range sc.nodes {
							if g, w := sc.nodes[i].start, ref.nodes[i].start; g != w {
								t.Fatalf("%s %s b%d on %s: node %d starts at %d, reference %d", m.Name, f.Name, b.ID, cfg.Name, i, g, w)
							}
						}
						blocks++
					}
				}
			}
		}
	}
	if blocks == 0 {
		t.Fatal("no blocks compared")
	}
}

// schedCounters is the sched_* part of an observer's registry.
func schedCounters(o *obs.Observer) [4]int64 {
	snap := o.Registry().Snapshot()
	return [4]int64{snap.Value("sched_cycles"), snap.Value("sched_moves"),
		snap.Value("sched_bus_busy_cycles"), snap.Value("sched_hoisted_moves")}
}

// TestBlockCacheSharedAcrossGoroutines runs FuncCycles through one cache
// per function from two goroutines over overlapping assignment sequences,
// and requires every result and the sched_* observer counters to equal
// those of FuncCycles through a fresh cache per call, which schedules
// every block.
func TestBlockCacheSharedAcrossGoroutines(t *testing.T) {
	b, err := bench.Get("fir")
	if err != nil {
		t.Fatal(err)
	}
	m, err := mclang.CompileUnrolled(b.Source, b.Name, 4)
	if err != nil {
		t.Fatal(err)
	}
	pointsto.Analyze(m)
	in := interp.New(m, interp.Options{})
	if _, err := in.RunMain(); err != nil {
		t.Fatal(err)
	}
	prof := in.Profile()
	cfg := machine.Paper2Cluster(5)
	rng := rand.New(rand.NewSource(3))
	for _, f := range m.Funcs {
		lc := NewLoopCtx(f)
		asgs := make([][]int, 6)
		for i := range asgs {
			asgs[i] = randomAssignment(rng, f, cfg)
		}
		wantObs := obs.New(obs.NewRegistry(), nil, nil)
		want := NewScratch()
		want.SetObserver(wantObs)
		wantCost := make([]Cost, len(asgs))
		for i, asg := range asgs {
			wantCost[i].Cycles, wantCost[i].Moves = want.FuncCycles(NewBlockCache(f, lc, cfg), asg, prof)
		}

		bc := NewBlockCache(f, lc, cfg)
		const rounds = 3
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				o := obs.New(obs.NewRegistry(), nil, nil)
				sc := NewScratch()
				sc.SetObserver(o)
				for r := 0; r < rounds; r++ {
					for j := range asgs {
						i := j
						if g == 1 {
							i = len(asgs) - 1 - j
						}
						cyc, mv := sc.FuncCycles(bc, asgs[i], prof)
						if cyc != wantCost[i].Cycles || mv != wantCost[i].Moves {
							t.Errorf("%s goroutine %d assignment %d: cached (%d,%d), direct (%d,%d)",
								f.Name, g, i, cyc, mv, wantCost[i].Cycles, wantCost[i].Moves)
						}
					}
				}
				got, w := schedCounters(o), schedCounters(wantObs)
				for k := range w {
					w[k] *= rounds
				}
				if got != w {
					t.Errorf("%s goroutine %d: sched counters %v, want %v", f.Name, g, got, w)
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestBlockCacheKeyDistinguishesBlockIDsPast65535 builds a function with
// 65,538 one-op blocks in which block 1 holds an add and block 65,537 a
// multiply, both on cluster 0 with no live-ins. Their IDs agree in the low
// 16 bits, so a cache key that truncated the ID would hand block 65,537
// the add's one-cycle schedule within a single FuncCycles call.
func TestBlockCacheKeyDistinguishesBlockIDsPast65535(t *testing.T) {
	const far = 1<<16 + 1
	m := ir.NewModule("t")
	bd := ir.NewBuilder(m, "f", 0)
	for i := 0; i <= far; i++ {
		if i > 0 {
			bd.SetBlock(bd.NewBlock())
		}
		opc := ir.OpAdd
		if i == far {
			opc = ir.OpMul
		}
		bd.Emit(opc, ir.ConstInt(1), ir.ConstInt(2))
	}
	f := m.Func("f")
	prof := profile.NewProfile()
	prof.BlockFreq[f.Blocks[1]] = 1
	prof.BlockFreq[f.Blocks[far]] = 1
	cfg := machine.Paper2Cluster(5)
	lc := NewLoopCtx(f)
	asg := make([]int, f.NOps)

	gotC, gotM := NewScratch().FuncCycles(NewBlockCache(f, lc, cfg), asg, prof)
	if want := int64(1 + machine.Latency(ir.OpMul)); gotC != want || gotM != 0 {
		t.Fatalf("FuncCycles = (%d,%d), want (%d,0)", gotC, gotM, want)
	}
}
