package main

import "testing"

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name       string
		start, end int64
		children   [][2]int64
		want       int64
	}{
		{"no children", 0, 100, nil, 100},
		{"disjoint children", 0, 100, [][2]int64{{10, 20}, {50, 80}}, 60},
		{"overlapping children count once", 0, 100, [][2]int64{{10, 40}, {30, 60}}, 50},
		{"child inside another", 0, 100, [][2]int64{{10, 90}, {20, 30}}, 20},
		{"children clipped to the parent", 10, 100, [][2]int64{{0, 20}, {90, 120}}, 70},
		{"child outside the parent", 0, 100, [][2]int64{{100, 150}}, 100},
		{"touching children", 0, 100, [][2]int64{{0, 50}, {50, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(c.start, c.end, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestNest(t *testing.T) {
	spans := []span{
		{Name: "unit", Layer: mHarness, Unit: 0, Start: 0, End: 100},
		{Name: "eval.Exhaustive", Layer: mSweep, Unit: 0, Start: 10, End: 90},
		// Program spans arrive without a unit and in any order.
		{Name: "exhaustive/fir/GDP/partition", Layer: mRhop, Program: true, Unit: -1, Start: 60, End: 70},
		{Name: "exhaustive/fir/Fixed", Layer: mEval, Program: true, Unit: -1, Start: 20, End: 50},
		{Name: "exhaustive/fir/GDP", Layer: mEval, Program: true, Unit: -1, Start: 55, End: 80},
		{Name: "eval.RunAllSchemes", Layer: mEval, Unit: 0, Start: 90, End: 95},
	}
	nest(spans)
	want := []struct {
		name   string
		parent int
		layer  string
		self   int64
	}{
		{"unit", -1, mHarness, 15},
		{"eval.Exhaustive", 0, mSweep, 25},
		{"exhaustive/fir/Fixed", 1, mSweep, 30},
		{"exhaustive/fir/GDP", 1, mSweep, 15},
		{"exhaustive/fir/GDP/partition", 3, mRhop, 10},
		{"eval.RunAllSchemes", 0, mEval, 5},
	}
	for i, w := range want {
		s := spans[i]
		if s.ID != i || s.Name != w.name || s.Parent != w.parent || s.Layer != w.layer || s.Self != w.self || s.Unit != 0 {
			t.Errorf("span %d = %+v, want name %s parent %d layer %s self %d unit 0", i, s, w.name, w.parent, w.layer, w.self)
		}
	}
}

func TestProgramLayer(t *testing.T) {
	for path, want := range map[string]string{
		"prepare/fir":               mPrepare,
		"prepare/fir/parse":         mMclang,
		"prepare/fir/pointsto":      mPointsto,
		"prepare/fir/profile":       mProfile,
		"matrix/fir/GDP":            mEval,
		"matrix/fir/GDP/data":       mGDP,
		"matrix/fir/GDP/partition":  mRhop,
		"matrix/fir/GDP/sched":      mSched,
		"exhaustive/fir/mask0003":   mEval,
		"exhaustive/fir/m/validate": mCheck,
		"best/fir/Fixed":            mEval,
	} {
		if got := programLayer(path); got != want {
			t.Errorf("programLayer(%q) = %s, want %s", path, got, want)
		}
	}
}
