package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gate runs the gate on the fixture module with the given allowlist lines
// and returns its exit status and output.
func gate(t *testing.T, allow ...string) (int, string) {
	t.Helper()
	file := filepath.Join(t.TempDir(), "allowlist.txt")
	if err := os.WriteFile(file, []byte(strings.Join(allow, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-allow", file, filepath.Join("testdata", "fixture")}, &out, &errOut)
	if errOut.Len() > 0 {
		t.Fatalf("stderr: %s", errOut.String())
	}
	return code, out.String()
}

const kept = "fixture/internal/lib.Kept TestKept"

func TestReportsUnreferencedExport(t *testing.T) {
	code, out := gate(t, kept)
	if code != 1 || !strings.Contains(out, "unreferenced export fixture/internal/lib.Unused") {
		t.Fatalf("exit %d, output:\n%s\nwant exit 1 naming fixture/internal/lib.Unused", code, out)
	}
	for _, name := range []string{"lib.T.String", "lib.T.Used", "lib.Kept", "lib.T\n"} {
		if strings.Contains(out, name) {
			t.Errorf("output names %s, which is referenced, satisfies an interface or is allowlisted:\n%s", name, out)
		}
	}
	if n := strings.Count(out, "\n"); n != 2 {
		t.Errorf("output has %d lines, want one problem and the summary:\n%s", n, out)
	}
}

func TestAllowlistedPasses(t *testing.T) {
	if code, out := gate(t, kept, "fixture/internal/lib.Unused TestKept"); code != 0 || out != "" {
		t.Fatalf("exit %d, output:\n%s\nwant exit 0 and no output", code, out)
	}
}

// TestStaleAllowlistFails: an entry naming a referenced identifier, a
// missing one or a missing test fails the gate, naming the entry.
func TestStaleAllowlistFails(t *testing.T) {
	const unused = "fixture/internal/lib.Unused TestKept"
	for _, tc := range []struct {
		name, want string
		allow      []string
	}{
		{"fixture/internal/lib.T.Used", "referenced by a non-test file", []string{kept, unused, "fixture/internal/lib.T.Used TestKept"}},
		{"fixture/internal/lib.Gone", "no such exported identifier", []string{kept, unused, "fixture/internal/lib.Gone TestKept"}},
		{"fixture/internal/lib.Unused", "no test TestNothing", []string{kept, "fixture/internal/lib.Unused TestNothing"}},
	} {
		code, out := gate(t, tc.allow...)
		if code != 1 || !strings.Contains(out, "stale allowlist entry "+tc.name) || !strings.Contains(out, tc.want) {
			t.Errorf("%s: exit %d, output:\n%s\nwant exit 1 and a stale entry (%s)", tc.name, code, out, tc.want)
		}
	}
}
