package sched

import (
	"testing"
	"testing/quick"

	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/pointsto"
)

// straightLine builds a function with one block of n independent integer
// adds (plus the terminator).
func straightLine(n int) *ir.Func {
	m := ir.NewModule("t")
	bd := ir.NewBuilder(m, "f", 1)
	for i := 0; i < n; i++ {
		bd.Emit(ir.OpAdd, ir.Reg(0), ir.ConstInt(int64(i)))
	}
	bd.Ret()
	return m.Func("f")
}

func allOn(f *ir.Func, cluster int) []int {
	asg := make([]int, f.NOps)
	for i := range asg {
		asg[i] = cluster
	}
	return asg
}

// scheduleFunc schedules every block of f under asg with unit-weight value
// homes and f's loop context, and returns the results by block ID.
func scheduleFunc(f *ir.Func, asg []int, cfg *machine.Config) []BlockResult {
	var hs HomeScratch
	home := hs.HomeClustersFreq(f, asg, cfg.NumClusters(), nil)
	sc, lc := NewScratch(), NewLoopCtx(f)
	out := make([]BlockResult, len(f.Blocks))
	for _, b := range f.Blocks {
		out[b.ID], _ = sc.ScheduleBlockCtx(b, asg, home, lc, cfg)
	}
	return out
}

func TestIndependentOpsPackToWidth(t *testing.T) {
	cfg := machine.Paper2Cluster(5)
	f := straightLine(8)
	// All on cluster 0: 2 int units -> 4 cycles of adds; terminator in
	// parallel on the branch unit. Length = 4 (last add issues cycle 3).
	res := scheduleFunc(f, allOn(f, 0), cfg)
	if got := res[0].Length; got != 4 {
		t.Errorf("length on 1 cluster = %d, want 4", got)
	}
	// Split evenly: 4 adds per cluster -> 2 cycles.
	asg := allOn(f, 0)
	for i := 0; i < 8; i += 2 {
		asg[i] = 1
	}
	res = scheduleFunc(f, asg, cfg)
	if got := res[0].Length; got != 2 {
		t.Errorf("length on 2 clusters = %d, want 2", got)
	}
	if res[0].Moves != 0 {
		t.Errorf("independent ops required %d moves", res[0].Moves)
	}
}

// chain builds v1=a+1; v2=v1+1; ... (dependent chain of n adds).
func chain(n int) *ir.Func {
	m := ir.NewModule("t")
	bd := ir.NewBuilder(m, "f", 1)
	prev := ir.VReg(0)
	for i := 0; i < n; i++ {
		prev = bd.Emit(ir.OpAdd, ir.Reg(prev), ir.ConstInt(1))
	}
	bd.Ret(ir.Reg(prev))
	return m.Func("f")
}

func TestDependentChainSerializes(t *testing.T) {
	cfg := machine.Paper2Cluster(5)
	f := chain(6)
	res := scheduleFunc(f, allOn(f, 0), cfg)
	// Adds issue at cycles 0..5; the ret consumes the final value at 6.
	if got := res[0].Length; got != 7 {
		t.Errorf("chain length = %d, want 7", got)
	}
}

func TestCrossClusterEdgeInsertsMove(t *testing.T) {
	f := chain(2)
	asg := allOn(f, 0)
	// Second add (and the ret consuming it) on cluster 1: one move.
	asg[1] = 1
	asg[2] = 1
	cfg := machine.Paper2Cluster(5)
	res := scheduleFunc(f, asg, cfg)
	if res[0].Moves != 1 {
		t.Fatalf("moves = %d, want 1", res[0].Moves)
	}
	// add@0(1) -> move@1(5) -> add@6(1) -> ret@7(1) = 8.
	if got := res[0].Length; got != 8 {
		t.Errorf("length = %d, want 8", got)
	}
	// With 1-cycle moves the penalty shrinks accordingly.
	res = scheduleFunc(f, asg, machine.Paper2Cluster(1))
	if got := res[0].Length; got != 4 {
		t.Errorf("length at lat1 = %d, want 4", got)
	}
}

func TestMoveReuseAcrossConsumers(t *testing.T) {
	// One def on cluster 0, three consumers on cluster 1: one move only.
	m := ir.NewModule("t")
	bd := ir.NewBuilder(m, "f", 1)
	v := bd.Emit(ir.OpAdd, ir.Reg(0), ir.ConstInt(1))
	bd.Emit(ir.OpMul, ir.Reg(v), ir.ConstInt(2))
	bd.Emit(ir.OpMul, ir.Reg(v), ir.ConstInt(3))
	bd.Emit(ir.OpMul, ir.Reg(v), ir.ConstInt(4))
	bd.Ret()
	f := m.Func("f")
	asg := []int{0, 1, 1, 1, 0}
	cfg := machine.Paper2Cluster(5)
	res := scheduleFunc(f, asg, cfg)
	if res[0].Moves != 1 {
		t.Errorf("moves = %d, want 1 (reuse)", res[0].Moves)
	}
}

func TestBusBandwidthLimits(t *testing.T) {
	// Two independent defs on cluster 0 each consumed on cluster 1. With
	// bandwidth 1 the two moves serialize.
	m := ir.NewModule("t")
	bd := ir.NewBuilder(m, "f", 2)
	a := bd.Emit(ir.OpAdd, ir.Reg(0), ir.ConstInt(1))
	b := bd.Emit(ir.OpAdd, ir.Reg(1), ir.ConstInt(2))
	bd.Emit(ir.OpMul, ir.Reg(a), ir.ConstInt(2))
	bd.Emit(ir.OpMul, ir.Reg(b), ir.ConstInt(2))
	bd.Ret()
	f := m.Func("f")
	asg := []int{0, 0, 1, 1, 0}
	cfg := machine.Paper2Cluster(5)
	res := scheduleFunc(f, asg, cfg)
	// adds at 0 (both, 2 int units); moves at 1 and 2 (bus=1); results at
	// 6 and 7; muls (lat 3) issue 6,7 -> length max(6+3, 7+3)=10.
	if got := res[0].Length; got != 10 {
		t.Errorf("length = %d, want 10", got)
	}
	wide := machine.Paper2Cluster(5)
	wide.MoveBandwidth = 2
	res = scheduleFunc(f, asg, wide)
	if got := res[0].Length; got != 9 {
		t.Errorf("length with bandwidth 2 = %d, want 9", got)
	}
}

func TestMemOpsSerializeWhenAliased(t *testing.T) {
	m := ir.NewModule("t")
	g := m.AddObject(&ir.Object{Name: "g", Kind: ir.ObjGlobal, Size: 32})
	bd := ir.NewBuilder(m, "f", 0)
	a := bd.Addr(g)
	bd.Store(ir.Reg(a), ir.ConstInt(1))
	v := bd.Load(ir.Reg(a))
	bd.Store(ir.Reg(a), ir.Reg(v))
	bd.Ret()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	pointsto.Analyze(m)
	f := m.Func("f")
	cfg := machine.Paper2Cluster(1)
	res := scheduleFunc(f, allOn(f, 0), cfg)
	// addr@0; store@1; load@2 (lat 2); store@4: length >= 5.
	if got := res[0].Length; got < 5 {
		t.Errorf("aliased mem ops overlapped: length = %d, want >= 5", got)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	m := ir.NewModule("t")
	g1 := m.AddObject(&ir.Object{Name: "g1", Kind: ir.ObjGlobal, Size: 8})
	g2 := m.AddObject(&ir.Object{Name: "g2", Kind: ir.ObjGlobal, Size: 8})
	bd := ir.NewBuilder(m, "f", 0)
	a1 := bd.Addr(g1)
	a2 := bd.Addr(g2)
	bd.Load(ir.Reg(a1))
	bd.Load(ir.Reg(a2))
	bd.Ret()
	pointsto.Analyze(m)
	f := m.Func("f")
	// Loads on different clusters proceed in parallel.
	asg := []int{0, 1, 0, 1, 0}
	cfg := machine.Paper2Cluster(1)
	res := scheduleFunc(f, asg, cfg)
	if got := res[0].Length; got != 3 {
		t.Errorf("parallel loads length = %d, want 3", got)
	}
}

func TestLiveInMoveCharged(t *testing.T) {
	// Def in block 0 on cluster 0, use in block 1 on cluster 1.
	m := ir.NewModule("t")
	bd := ir.NewBuilder(m, "f", 1)
	v := bd.Emit(ir.OpAdd, ir.Reg(0), ir.ConstInt(1))
	next := bd.NewBlock()
	bd.Br(next)
	bd.SetBlock(next)
	bd.Emit(ir.OpMul, ir.Reg(v), ir.ConstInt(2))
	bd.Ret()
	f := m.Func("f")
	asg := make([]int, f.NOps)
	// op IDs: 0=add, 1=br, 2=mul, 3=ret
	asg[2] = 1
	cfg := machine.Paper2Cluster(5)
	res := scheduleFunc(f, asg, cfg)
	if res[1].Moves != 1 {
		t.Errorf("live-in moves = %d, want 1", res[1].Moves)
	}
	// move(5) then mul(3): length 8.
	if got := res[1].Length; got != 8 {
		t.Errorf("block 1 length = %d, want 8", got)
	}
	// Same cluster: free.
	asg[2] = 0
	res = scheduleFunc(f, asg, cfg)
	if res[1].Moves != 0 {
		t.Errorf("same-cluster live-in charged a move")
	}
}

func TestParamsAvailableEverywhere(t *testing.T) {
	f := straightLine(2)
	asg := allOn(f, 1) // ops use param reg 0 on cluster 1
	cfg := machine.Paper2Cluster(5)
	res := scheduleFunc(f, asg, cfg)
	if res[0].Moves != 0 {
		t.Errorf("parameter use charged %d moves", res[0].Moves)
	}
}

func TestHomeClustersMajority(t *testing.T) {
	m := ir.NewModule("t")
	bd := ir.NewBuilder(m, "f", 0)
	r := bd.NewReg()
	bd.EmitTo(r, ir.OpMov, ir.ConstInt(1))
	bd.EmitTo(r, ir.OpMov, ir.ConstInt(2))
	bd.EmitTo(r, ir.OpMov, ir.ConstInt(3))
	bd.Ret()
	f := m.Func("f")
	asg := []int{1, 1, 0, 0}
	var hs HomeScratch
	home := hs.HomeClustersFreq(f, asg, 2, nil)
	if home[r] != 1 {
		t.Errorf("home = %d, want 1 (majority)", home[r])
	}
}

func TestProgramCycles(t *testing.T) {
	m := ir.NewModule("t")
	bd := ir.NewBuilder(m, "main", 0)
	bd.Emit(ir.OpAdd, ir.ConstInt(1), ir.ConstInt(2))
	bd.Ret()
	f := m.Func("main")
	in := interp.New(m, interp.Options{})
	if _, err := in.RunMain(); err != nil {
		t.Fatal(err)
	}
	cfg := machine.Paper2Cluster(5)
	cycles, moves := NewScratch().FuncCycles(NewBlockCache(f, NewLoopCtx(f), cfg), allOn(f, 0), in.Profile())
	if cycles < 1 || moves != 0 {
		t.Errorf("cycles=%d moves=%d", cycles, moves)
	}
}

// Property: schedule length is at least the critical path lower bound and
// at least the resource lower bound, for random assignments of a fixed DAG.
func TestScheduleLowerBoundsQuick(t *testing.T) {
	f := chain(5) // critical path 5 on one cluster
	cfg := machine.Paper2Cluster(5)
	check := func(bits uint8) bool {
		asg := make([]int, f.NOps)
		crossings := 0
		prev := 0
		for i := 0; i < 5; i++ {
			asg[i] = int(bits>>uint(i)) & 1
			if i > 0 && asg[i] != prev {
				crossings++
			}
			prev = asg[i]
		}
		asg[5] = asg[4] // the ret follows the final add's cluster
		res := scheduleFunc(f, asg, cfg)
		want := 5 + crossings*cfg.MoveLatency + 1 // +1 for the ret
		return res[0].Length == want && res[0].Moves == crossings
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}

// Property: adding cross-cluster splits never makes the schedule shorter
// than keeping a dependent chain on one cluster.
func TestChainMonotoneQuick(t *testing.T) {
	f := chain(8)
	cfg := machine.Paper2Cluster(5)
	base := scheduleFunc(f, allOn(f, 0), cfg)[0].Length
	check := func(bits uint16) bool {
		asg := make([]int, f.NOps)
		for i := 0; i < 8; i++ {
			asg[i] = int(bits>>uint(i)) & 1
		}
		return scheduleFunc(f, asg, cfg)[0].Length >= base
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRingLatencyAffectsSchedule(t *testing.T) {
	// A value produced on cluster 0 and consumed on cluster 2 of a 4-ring
	// pays 2 hops; on the bus a single latency.
	f := chain(2)
	asg := []int{0, 2, 2}
	ring := machine.RingFour(5)
	bus := machine.FourCluster(5)
	r := scheduleFunc(f, asg, ring)[0]
	b := scheduleFunc(f, asg, bus)[0]
	// add@0(1) -> move(2 hops x5=10) -> add@11 -> ret: 13 on the ring.
	if r.Length != b.Length+5 {
		t.Errorf("ring length %d, bus %d; want ring = bus + one extra hop (5)",
			r.Length, b.Length)
	}
	// Adjacent clusters cost the same as the bus.
	asgAdj := []int{0, 1, 1}
	rAdj := scheduleFunc(f, asgAdj, ring)[0]
	bAdj := scheduleFunc(f, asgAdj, bus)[0]
	if rAdj.Length != bAdj.Length {
		t.Errorf("adjacent ring length %d != bus %d", rAdj.Length, bAdj.Length)
	}
}
