// Package cli is the command-line surface the mcpart tools share: one
// declarative table of the flags gdpc, gdpbench and gdpexplore have in
// common, and one Start/Finish lifecycle around a tool run — the eager
// artifact-store open and the flush at exit, the -timeout context, the
// -trace/-metrics/-prom observer (obs.ToolSinks) and the
// -cpuprofile/-memprofile pprof outputs.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mcpart/internal/machine"
	"mcpart/internal/obs"
	"mcpart/internal/store"
)

// Group selects a block of the flag table; Register always adds Common.
type Group uint8

// Flag groups.
const (
	Common  Group = 1 << iota // -cachedir -cachemaxbytes -cachestats -validate -timeout -trace -metrics -prom
	Workers                   // -j -cpuprofile -memprofile
	Machine                   // -machine -latency
)

// Flags holds the parsed values of the table flags.
type Flags struct {
	CacheDir      string
	CacheMaxBytes int64
	CacheStats    bool
	Validate      bool
	Timeout       time.Duration
	Trace         string
	Metrics       bool
	Prom          string

	Jobs       int
	CPUProfile string
	MemProfile string

	Machine string
	Latency int
}

// table declares the shared flags. Defaults are the zero values except
// -latency's.
var table = []struct {
	name  string
	group Group
	usage string
	field func(*Flags) any
}{
	{"cachedir", Common, "persistent artifact-cache directory: partition/schedule/profile results survive process restarts (empty = disabled)", func(f *Flags) any { return &f.CacheDir }},
	{"cachemaxbytes", Common, "artifact-cache size bound in bytes (0 = 1 GiB default)", func(f *Flags) any { return &f.CacheMaxBytes }},
	{"cachestats", Common, "print memoization and artifact-store cache statistics", func(f *Flags) any { return &f.CacheStats }},
	{"validate", Common, "re-check every result with the independent schedule validator", func(f *Flags) any { return &f.Validate }},
	{"timeout", Common, "abort the run after this duration (0 = no limit)", func(f *Flags) any { return &f.Timeout }},
	{"trace", Common, "write the pipeline span trace to this file as sorted JSON lines", func(f *Flags) any { return &f.Trace }},
	{"metrics", Common, "print the metric registry summary after the output", func(f *Flags) any { return &f.Metrics }},
	{"prom", Common, "write the metrics in Prometheus text format to this file", func(f *Flags) any { return &f.Prom }},
	{"j", Workers, "worker count (0 = GOMAXPROCS)", func(f *Flags) any { return &f.Jobs }},
	{"cpuprofile", Workers, "write a CPU profile to this file", func(f *Flags) any { return &f.CPUProfile }},
	{"memprofile", Workers, "write a heap profile to this file on exit", func(f *Flags) any { return &f.MemProfile }},
	{"machine", Machine, "machine preset: " + strings.Join(machine.PresetNames(), " | "), func(f *Flags) any { return &f.Machine }},
	{"latency", Machine, "intercluster move latency in cycles", func(f *Flags) any { return &f.Latency }},
}

// Register adds the Common flags and those of groups to fs. Each field's
// value at Register time is its flag's default, so a tool sets a field
// first to change its default; a zero Latency becomes 5.
func (f *Flags) Register(fs *flag.FlagSet, groups Group) {
	if f.Latency == 0 {
		f.Latency = 5
	}
	for _, e := range table {
		if e.group&(groups|Common) == 0 {
			continue
		}
		switch p := e.field(f).(type) {
		case *string:
			fs.StringVar(p, e.name, *p, e.usage)
		case *bool:
			fs.BoolVar(p, e.name, *p, e.usage)
		case *int:
			fs.IntVar(p, e.name, *p, e.usage)
		case *int64:
			fs.Int64Var(p, e.name, *p, e.usage)
		case *time.Duration:
			fs.DurationVar(p, e.name, *p, e.usage)
		}
	}
}

// OpenStore opens dir's shared artifact store eagerly, so an unusable
// directory fails at start-up instead of leaving the pipeline silently
// uncached. An empty dir is a no-op.
func OpenStore(dir string, maxBytes int64) error {
	if dir == "" {
		return nil
	}
	if _, err := store.OpenShared(dir, store.Options{MaxBytes: maxBytes}); err != nil {
		return fmt.Errorf("-cachedir: %w", err)
	}
	return nil
}

// Run is one started tool invocation. Ctx carries the -timeout deadline
// and Observer, which is nil when no -trace/-metrics/-prom sink is set.
type Run struct {
	Ctx      context.Context
	Observer *obs.Observer

	flags   *Flags
	sinks   *obs.ToolSinks
	cancel  context.CancelFunc
	cpuFile *os.File
	memPath string
}

// Start opens the artifact store, applies the timeout, builds the
// observer and starts the CPU profile. Pair every successful Start with
// Finish.
func (f *Flags) Start() (*Run, error) {
	if err := OpenStore(f.CacheDir, f.CacheMaxBytes); err != nil {
		return nil, err
	}
	r := &Run{flags: f, cancel: func() {}, memPath: f.MemProfile,
		sinks: &obs.ToolSinks{TracePath: f.Trace, Summary: f.Metrics, PromPath: f.Prom}}
	if f.CPUProfile != "" {
		file, err := os.Create(f.CPUProfile)
		if err == nil {
			if err = pprof.StartCPUProfile(file); err != nil {
				file.Close()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		r.cpuFile = file
	}
	r.Observer = r.sinks.Observer()
	r.Ctx = obs.With(context.Background(), r.Observer)
	if f.Timeout > 0 {
		r.Ctx, r.cancel = context.WithTimeout(r.Ctx, f.Timeout)
	}
	return r, nil
}

// Finish stops the CPU profile, writes the heap profile, flushes the
// observability sinks to out (after a failed run too: a partial trace is
// what a failed run should leave behind), releases the timeout and
// flushes the artifact store. It returns err when non-nil, else the
// first error of those steps. Repeated calls are harmless.
func (r *Run) Finish(out io.Writer, err error) error {
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	if r.cpuFile != nil {
		pprof.StopCPUProfile()
		if cerr := r.cpuFile.Close(); cerr != nil {
			keep(fmt.Errorf("-cpuprofile: %w", cerr))
		}
		r.cpuFile = nil
	}
	if r.memPath != "" {
		keep(writeHeapProfile(r.memPath))
		r.memPath = ""
	}
	keep(r.sinks.Flush(out))
	r.cancel()
	if r.flags.CacheDir != "" {
		keep(store.FlushShared(r.flags.CacheDir))
	}
	return err
}

// writeHeapProfile snapshots the heap into path after a GC, so the
// snapshot reflects live memory.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err == nil {
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	return nil
}

// WriteStoreStats prints the shared artifact store's counters as one line
// headed by label; nothing without -cachedir.
func (r *Run) WriteStoreStats(w io.Writer, label string) {
	if st, ok := store.SharedStats(r.flags.CacheDir); ok && r.flags.CacheDir != "" {
		fmt.Fprintf(w, "%s: hits %d  misses %d  rate %.1f%%  writes %d  corrupt %d  bytes %d\n",
			label, st.Hits, st.Misses, 100*st.HitRate(), st.Writes, st.CorruptSkipped, st.LogBytes)
	}
}
