package main

import (
	"flag"
	"testing"
)

// TestFlagSurface pins every registered flag name and default value, so a
// refactor of the flag wiring cannot add, drop or change one unnoticed.
func TestFlagSurface(t *testing.T) {
	want := [][2]string{
		{"bench", "rawcaudio"},
		{"best", "false"},
		{"cachedir", ""},
		{"cachemaxbytes", "0"},
		{"cachestats", "false"},
		{"cpuprofile", ""},
		{"csv", "false"},
		{"j", "0"},
		{"latency", "5"},
		{"machine", "paper2"},
		{"maxobjects", "14"},
		{"memprofile", ""},
		{"metrics", "false"},
		{"prom", ""},
		{"timeout", "0s"},
		{"trace", ""},
		{"validate", "false"},
	}
	var got [][2]string
	newFlagSet(new(config)).VisitAll(func(f *flag.Flag) {
		got = append(got, [2]string{f.Name, f.DefValue})
	})
	if len(got) != len(want) {
		t.Fatalf("gdpexplore registers %d flags, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("flag %d = %q, want %q", i, got[i], want[i])
		}
	}
}
