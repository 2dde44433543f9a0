package sched

import (
	"fmt"
	"strings"

	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/profile"
)

// SlotDep is one dependence edge of a materialized schedule: the consumer
// may not issue before Slots[From].Cycle + Lat.
type SlotDep struct {
	From int // index into BlockSchedule.Slots
	Lat  int
}

// Slot is one issued operation in a concrete schedule: which cycle, which
// cluster, which function unit kind, what it is, and what it waits on.
type Slot struct {
	Cycle   int
	Cluster int
	// To is the receiving cluster of an intercluster move (== Cluster for
	// ordinary ops), so validators can re-derive the per-hop move cost
	// from the machine topology without trusting Lat.
	To     int
	Kind   machine.FUKind
	Op     *ir.Op // nil for intercluster moves
	IsMove bool
	// Lat is the operation's result latency (cycles from issue until the
	// value is available to dependents).
	Lat int
	// Preds are the dependence edges into this slot, as the scheduler
	// honored them. Exposed so external validators (internal/check) can
	// re-verify ready times from first principles.
	Preds []SlotDep
}

// BlockSchedule is a fully materialized block schedule for inspection and
// independent validation. Slots are in node order: the block's ops first
// (in program order), synthesized intercluster moves after, so SlotDep
// indices are stable and deterministic.
type BlockSchedule struct {
	Block  *ir.Block
	Length int
	Slots  []Slot
	// Hoisted are the loop-invariant live-in copies this block delegated
	// to its loop entry (empty without a LoopCtx).
	Hoisted []HoistedMove
}

// MaterializeBlock runs the list scheduler and returns the full schedule
// (ScheduleBlockCtx returns only the summary).
func (sc *Scratch) MaterializeBlock(b *ir.Block, asg []int, home []int, lc *LoopCtx, cfg *machine.Config) *BlockSchedule {
	hoisted := sc.buildNodes(b, asg, home, lc, cfg)
	bs := &BlockSchedule{Block: b, Length: 1, Hoisted: hoisted}
	if len(sc.nodes) == 0 {
		return bs
	}
	bs.Length = sc.listSchedule(cfg)
	for _, n := range sc.nodes {
		bs.Slots = append(bs.Slots, Slot{
			Cycle:   n.start,
			Cluster: n.cluster,
			To:      n.to,
			Kind:    n.kind,
			Op:      n.op,
			IsMove:  n.isMove,
			Lat:     n.lat,
			Preds:   depSlots(n.preds),
		})
	}
	return bs
}

func depSlots(ds []dep) []SlotDep {
	out := make([]SlotDep, len(ds))
	for i, d := range ds {
		out[i] = SlotDep{From: d.from, Lat: d.lat}
	}
	return out
}

// MaterializeFunc materializes every block schedule of f under asg with
// profile-weighted value homes — exactly the schedules whose lengths
// FuncCycles sums — plus the deduplicated hoisted loop-entry moves. The
// returned schedules are indexed by block ID.
func MaterializeFunc(f *ir.Func, asg []int, lc *LoopCtx, cfg *machine.Config, freq func(*ir.Block) int64) ([]*BlockSchedule, []HoistedMove) {
	sc := NewScratch()
	home := sc.home.HomeClustersFreq(f, asg, cfg.NumClusters(), freq)
	out := make([]*BlockSchedule, len(f.Blocks))
	var hoisted []HoistedMove
	seen := map[HoistedMove]bool{}
	for _, b := range f.Blocks {
		bs := sc.MaterializeBlock(b, asg, home, lc, cfg)
		out[b.ID] = bs
		for _, h := range bs.Hoisted {
			if !seen[h] {
				seen[h] = true
				hoisted = append(hoisted, h)
			}
		}
	}
	SortHoisted(hoisted)
	return out, hoisted
}

// Format renders the schedule as a VLIW-style table, one row per cycle and
// one column per cluster, with each issued op in its slot.
func (bs *BlockSchedule) Format(cfg *machine.Config) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "block b%d: %d cycles, %d issues\n", bs.Block.ID, bs.Length, len(bs.Slots))
	byCycle := map[int][]Slot{}
	for _, s := range bs.Slots {
		byCycle[s.Cycle] = append(byCycle[s.Cycle], s)
	}
	for cyc := 0; cyc < bs.Length; cyc++ {
		slots := byCycle[cyc]
		if len(slots) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%4d |", cyc)
		for c := 0; c < cfg.NumClusters(); c++ {
			var cell []string
			for _, s := range slots {
				if s.Cluster != c {
					continue
				}
				if s.IsMove {
					cell = append(cell, "move>")
				} else {
					cell = append(cell, s.Op.Opcode.String())
				}
			}
			fmt.Fprintf(&sb, " %-28s |", strings.Join(cell, " "))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// FormatFunc renders every block schedule of a function under asg: the
// MaterializeFunc schedules, i.e. the ones whose lengths FuncCycles counts.
func FormatFunc(f *ir.Func, asg []int, cfg *machine.Config, prof *profile.Profile) string {
	blocks, _ := MaterializeFunc(f, asg, NewLoopCtx(f), cfg, prof.Freq)
	var sb strings.Builder
	fmt.Fprintf(&sb, "schedule of %s on %s\n", f.Name, cfg.Name)
	for _, b := range f.Blocks {
		sb.WriteString(blocks[b.ID].Format(cfg))
	}
	return sb.String()
}
