package sched

import (
	"strings"
	"testing"

	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/profile"
)

func TestMaterializeMatchesSummary(t *testing.T) {
	f := chain(5)
	cfg := machine.Paper2Cluster(5)
	asg := allOn(f, 0)
	asg[2] = 1
	asg[3] = 1
	var hs HomeScratch
	home := hs.HomeClustersFreq(f, asg, 2, nil)
	lc := NewLoopCtx(f)
	sum, _ := NewScratch().ScheduleBlockCtx(f.Blocks[0], asg, home, lc, cfg)
	bs := NewScratch().MaterializeBlock(f.Blocks[0], asg, home, lc, cfg)
	if bs.Length != sum.Length {
		t.Fatalf("materialized length %d != summary %d", bs.Length, sum.Length)
	}
	moves := 0
	for _, s := range bs.Slots {
		if s.IsMove {
			moves++
		}
	}
	if moves != sum.Moves {
		t.Fatalf("materialized moves %d != summary %d", moves, sum.Moves)
	}
	// Every real op appears exactly once.
	seen := map[*ir.Op]int{}
	for _, s := range bs.Slots {
		if s.Op != nil {
			seen[s.Op]++
		}
	}
	for _, op := range f.Blocks[0].Ops {
		if seen[op] != 1 {
			t.Errorf("op %s scheduled %d times", op, seen[op])
		}
	}
}

func TestFormatFuncRendersTable(t *testing.T) {
	f := chain(3)
	cfg := machine.Paper2Cluster(5)
	out := FormatFunc(f, allOn(f, 0), cfg, profile.NewProfile())
	for _, want := range []string{"schedule of f", "block b0:", "add", "ret"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	// Moves render as "move>".
	asg := allOn(f, 0)
	asg[1] = 1
	asg[2] = 1
	asg[3] = 1
	out = FormatFunc(f, asg, cfg, profile.NewProfile())
	if !strings.Contains(out, "move>") {
		t.Errorf("dump missing move marker:\n%s", out)
	}
}
