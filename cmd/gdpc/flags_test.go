package main

import (
	"flag"
	"testing"
)

// TestFlagSurface pins every registered flag name and default value, so a
// refactor of the flag wiring cannot add, drop or change one unnoticed.
func TestFlagSurface(t *testing.T) {
	want := [][2]string{
		{"bench", ""},
		{"cachedir", ""},
		{"cachemaxbytes", "0"},
		{"cachestats", "false"},
		{"clusters", "2"},
		{"dump-ir", "false"},
		{"dump-sched", ""},
		{"latency", "5"},
		{"list", "false"},
		{"machine", ""},
		{"metrics", "false"},
		{"objects", "true"},
		{"prom", ""},
		{"scheme", "all"},
		{"src", ""},
		{"timeout", "0s"},
		{"trace", ""},
		{"unroll", "0"},
		{"validate", "false"},
	}
	var got [][2]string
	newFlagSet(new(config)).VisitAll(func(f *flag.Flag) {
		got = append(got, [2]string{f.Name, f.DefValue})
	})
	if len(got) != len(want) {
		t.Fatalf("gdpc registers %d flags, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("flag %d = %q, want %q", i, got[i], want[i])
		}
	}
}
