package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcpart/internal/serve/loadtest"
)

func TestParseLevels(t *testing.T) {
	got, err := parseLevels(" 1, 4 ,16 ")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 16 {
		t.Fatalf("parseLevels: %v %v", got, err)
	}
	for _, bad := range []string{"", "0", "-2", "x", "1,,y"} {
		if _, err := parseLevels(bad); err == nil {
			t.Errorf("parseLevels(%q) accepted", bad)
		}
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-nope"}, new(bytes.Buffer)); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-loadtest", "-levels", "bogus"}, new(bytes.Buffer)); err == nil {
		t.Fatal("bad -levels accepted")
	}
}

// TestLoadtestMode runs the self-hosted harness end to end at tiny scale
// and checks the written report parses and accounts for every request.
func TestLoadtestMode(t *testing.T) {
	if testing.Short() {
		t.Skip("loadtest mode skipped in -short")
	}
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	var buf bytes.Buffer
	err := run([]string{
		"-loadtest", "-levels", "1,4", "-requests", "20",
		"-seed", "3", "-faultpct", "30", "-o", out,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"conc", "server counters:", "serve_requests"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, buf.String())
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Benchmark string           `json:"benchmark"`
		Report    *loadtest.Report `json:"report"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("report parse: %v", err)
	}
	if doc.Benchmark == "" || doc.Report == nil {
		t.Fatalf("report envelope incomplete: %s", data)
	}
	if len(doc.Report.Levels) != 2 {
		t.Fatalf("report levels: %+v", doc.Report.Levels)
	}
	for _, lr := range doc.Report.Levels {
		if lr.Requests != 20 || lr.Mismatches != 0 || lr.Untyped != 0 {
			t.Fatalf("level report %+v", lr)
		}
	}
}

// TestCacheDirBadPathErrors pins that an unusable -cachedir fails at
// start-up, as it does in the other tools, instead of every request
// silently running uncached.
func TestCacheDirBadPathErrors(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-cachedir", filepath.Join(file, "x"), "-loadtest", "-levels", "1", "-requests", "4"}, new(bytes.Buffer))
	if err == nil || !strings.HasPrefix(err.Error(), "-cachedir: ") {
		t.Fatalf("err = %v, want a -cachedir start-up error", err)
	}
}
