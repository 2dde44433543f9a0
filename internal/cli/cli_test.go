package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStartStopWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{CPUProfile: filepath.Join(dir, "cpu.pprof"), MemProfile: filepath.Join(dir, "mem.pprof")}
	r, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := r.Finish(io.Discard, nil); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{f.CPUProfile, f.MemProfile} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	// A second Finish is a no-op.
	if err := r.Finish(io.Discard, nil); err != nil {
		t.Errorf("repeated Finish: %v", err)
	}
}

func TestInertProfiler(t *testing.T) {
	r, err := new(Flags).Start()
	if err != nil {
		t.Fatal(err)
	}
	if r.Observer != nil {
		t.Errorf("no sink requested, yet an observer: %v", r.Observer)
	}
	if err := r.Finish(io.Discard, nil); err != nil {
		t.Errorf("inert Finish: %v", err)
	}
}

func TestStartBadPath(t *testing.T) {
	f := &Flags{CPUProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "cpu")}
	if _, err := f.Start(); err == nil || !strings.HasPrefix(err.Error(), "-cpuprofile: ") {
		t.Fatalf("err = %v, want a -cpuprofile error for an uncreatable path", err)
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f = &Flags{CacheDir: filepath.Join(file, "x")}
	if _, err := f.Start(); err == nil || !strings.HasPrefix(err.Error(), "-cachedir: ") {
		t.Fatalf("err = %v, want a -cachedir error for a directory under a file", err)
	}
}

// TestRegisterDefaults pins the table defaults and the preset override:
// a field set before Register becomes that tool's default.
func TestRegisterDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := &Flags{Machine: "paper2"}
	f.Register(fs, Machine)
	if fs.Lookup("j") != nil {
		t.Error("-j registered without the Workers group")
	}
	for name, want := range map[string]string{"machine": "paper2", "latency": "5", "timeout": "0s", "cachedir": ""} {
		if fl := fs.Lookup(name); fl == nil || fl.DefValue != want {
			t.Errorf("-%s: %+v, want default %q", name, fl, want)
		}
	}
	if !strings.Contains(fs.Lookup("machine").Usage, "mesh8") {
		t.Errorf("-machine usage %q does not list the presets", fs.Lookup("machine").Usage)
	}
}
