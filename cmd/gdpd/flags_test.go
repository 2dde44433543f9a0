package main

import (
	"flag"
	"testing"
)

// TestFlagSurface pins every registered flag name and default value, so a
// refactor of the flag wiring cannot add, drop or change one unnoticed.
func TestFlagSurface(t *testing.T) {
	want := [][2]string{
		{"addr", ":8137"},
		{"burst", "0"},
		{"cachedir", ""},
		{"cachemaxbytes", "0"},
		{"draintimeout", "30s"},
		{"faultpct", "25"},
		{"inject", "false"},
		{"keepprograms", "0"},
		{"levels", "1,4,16"},
		{"loadtest", "false"},
		{"maxconcurrent", "0"},
		{"maxtimeout", "0s"},
		{"memceiling", "0"},
		{"o", ""},
		{"pacing", "0s"},
		{"programs", "0"},
		{"queue", "0"},
		{"rate", "0"},
		{"requests", "96"},
		{"seed", "1"},
		{"timeout", "0s"},
	}
	var got [][2]string
	newFlagSet(new(flags)).VisitAll(func(f *flag.Flag) {
		got = append(got, [2]string{f.Name, f.DefValue})
	})
	if len(got) != len(want) {
		t.Fatalf("gdpd registers %d flags, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("flag %d = %q, want %q", i, got[i], want[i])
		}
	}
}
