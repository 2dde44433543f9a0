// Command gdpd serves the mcpart partitioning pipeline as a hardened
// HTTP+JSON daemon (DESIGN.md §14): partition-as-a-service with admission
// control, per-request budgets, panic containment, graceful degradation,
// and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	gdpd                            # serve on :8137
//	gdpd -addr 127.0.0.1:9000       # explicit listen address
//	gdpd -cachedir .gdpcache        # persistent artifact store under the session
//	gdpd -rate 50 -burst 100        # token-bucket admission: 50 req/s, burst 100
//	gdpd -maxconcurrent 8 -queue 32 # 8 worker slots, 32 queued before 503
//	gdpd -memceiling 512000000      # shrink caches when the heap passes ~512 MB
//	gdpd -inject                    # honor per-request fault-injection specs
//
// Endpoints: POST /v1/compile, /v1/partition, /v1/sweep, /v1/best (JSON
// bodies, see internal/serve's APIRequest), GET /healthz (liveness),
// /readyz (readiness; 503 while draining), /metrics (Prometheus text).
//
// On SIGTERM or SIGINT the daemon drains: readiness flips to 503, new
// requests shed with a typed 503, in-flight requests finish — or are
// cancelled cleanly at -draintimeout, each still receiving a response —
// and the artifact store flushes before exit.
//
// Load-test mode:
//
//	gdpd -loadtest                        # self-hosted harness, report to stdout
//	gdpd -loadtest -o BENCH_serve.json    # plus the JSON report artifact
//	gdpd -loadtest -levels 1,8,32 -requests 200 -seed 7 -faultpct 30
//
// -loadtest boots the daemon on a loopback port with fault injection
// enabled, drives the mixed-traffic harness (internal/serve/loadtest) at
// each concurrency level, verifies every successful response byte-for-byte
// against a serial oracle, and writes latency percentiles plus
// shed/degrade counts. A mismatch or an untyped failure exits nonzero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mcpart"
	"mcpart/internal/cli"
	"mcpart/internal/obs"
	"mcpart/internal/serve"
	"mcpart/internal/serve/loadtest"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gdpd:", err)
		os.Exit(1)
	}
}

type flags struct {
	addr          string
	cacheDir      string
	cacheMaxBytes int64
	programs      int
	maxConcurrent int
	queue         int
	rate          float64
	burst         int
	timeout       time.Duration
	maxTimeout    time.Duration
	drainTimeout  time.Duration
	memCeiling    int64
	keepPrograms  int
	inject        bool

	loadtest bool
	levels   string
	requests int
	seed     int64
	faultPct int
	pacing   time.Duration
	out      string
}

func newFlagSet(f *flags) *flag.FlagSet {
	fs := flag.NewFlagSet("gdpd", flag.ContinueOnError)
	fs.StringVar(&f.addr, "addr", ":8137", "listen address")
	fs.StringVar(&f.cacheDir, "cachedir", "", "persistent artifact store directory (empty: memory only)")
	fs.Int64Var(&f.cacheMaxBytes, "cachemaxbytes", 0, "artifact store size bound in bytes (0: store default)")
	fs.IntVar(&f.programs, "programs", 0, "compiled programs kept resident (0: default)")
	fs.IntVar(&f.maxConcurrent, "maxconcurrent", 0, "requests doing pipeline work at once (0: GOMAXPROCS)")
	fs.IntVar(&f.queue, "queue", 0, "requests queued beyond the concurrent ones before 503 (0: default 64)")
	fs.Float64Var(&f.rate, "rate", 0, "token-bucket admission rate per second (0: unlimited)")
	fs.IntVar(&f.burst, "burst", 0, "token-bucket burst (0: max(1, rate))")
	fs.DurationVar(&f.timeout, "timeout", 0, "default per-request deadline (0: 30s)")
	fs.DurationVar(&f.maxTimeout, "maxtimeout", 0, "per-request deadline ceiling (0: 2m)")
	fs.DurationVar(&f.drainTimeout, "draintimeout", 30*time.Second, "graceful-drain deadline on SIGTERM")
	fs.Int64Var(&f.memCeiling, "memceiling", 0, "heap bytes that trigger cache shrinking (0: disabled)")
	fs.IntVar(&f.keepPrograms, "keepprograms", 0, "programs surviving a memory release (0: 1)")
	fs.BoolVar(&f.inject, "inject", false, "honor per-request fault-injection specs (load tests only)")

	fs.BoolVar(&f.loadtest, "loadtest", false, "self-host on loopback and run the load harness instead of serving")
	fs.StringVar(&f.levels, "levels", "1,4,16", "loadtest concurrency levels, comma-separated")
	fs.IntVar(&f.requests, "requests", 96, "loadtest requests per level")
	fs.Int64Var(&f.seed, "seed", 1, "loadtest mix seed")
	fs.IntVar(&f.faultPct, "faultpct", 25, "loadtest percentage of requests with injected faults")
	fs.DurationVar(&f.pacing, "pacing", 0, "loadtest per-worker think time between requests (0: none)")
	fs.StringVar(&f.out, "o", "", "loadtest JSON report path (empty: stdout summary only)")
	return fs
}

func run(args []string, w io.Writer) error {
	var f flags
	if err := newFlagSet(&f).Parse(args); err != nil {
		return err
	}
	// Fail at start-up, as the other tools do, rather than serving every
	// request uncached from an unusable store.
	if err := cli.OpenStore(f.cacheDir, f.cacheMaxBytes); err != nil {
		return err
	}

	session := mcpart.NewSession(mcpart.SessionOptions{
		CacheDir:      f.cacheDir,
		CacheMaxBytes: f.cacheMaxBytes,
		MaxPrograms:   f.programs,
	})
	defer session.Close()

	reg := obs.NewRegistry()
	cfg := serve.Config{
		Session:         session,
		MaxConcurrent:   f.maxConcurrent,
		QueueDepth:      f.queue,
		RatePerSec:      f.rate,
		Burst:           f.burst,
		DefaultTimeout:  f.timeout,
		MaxTimeout:      f.maxTimeout,
		MemCeilingBytes: f.memCeiling,
		MemKeepPrograms: f.keepPrograms,
		AllowInject:     f.inject,
		Observer:        obs.New(reg, nil, nil),
	}

	if f.loadtest {
		cfg.AllowInject = true
		return runLoadtest(f, cfg, reg, w)
	}
	return serveForever(f, cfg, w)
}

// serveForever runs the daemon until SIGTERM/SIGINT, then drains.
func serveForever(f flags, cfg serve.Config, w io.Writer) error {
	srv := serve.New(cfg)
	hs := &http.Server{Addr: f.addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	fmt.Fprintf(w, "gdpd: serving on %s\n", f.addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(w, "gdpd: draining (deadline %s)\n", f.drainTimeout)

	// Drain first: readiness flips, new requests shed with a typed 503,
	// accepted requests finish or are cancelled cleanly at the deadline —
	// each still writes its response before the listener closes.
	drainCtx, cancel := context.WithTimeout(context.Background(), f.drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(shutCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	fmt.Fprintln(w, "gdpd: drained")
	return drainErr
}

// runLoadtest self-hosts the daemon on a loopback port and drives the
// mixed-traffic harness against it.
func runLoadtest(f flags, cfg serve.Config, reg *obs.Registry, w io.Writer) error {
	levels, err := parseLevels(f.levels)
	if err != nil {
		return err
	}

	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx)
		hs.Shutdown(ctx)
	}()
	url := "http://" + ln.Addr().String()
	fmt.Fprintf(w, "gdpd loadtest: %s levels=%v requests=%d seed=%d faults=%d%%\n",
		url, levels, f.requests, f.seed, f.faultPct)

	report, err := loadtest.Run(loadtest.Options{
		URL:      url,
		Levels:   levels,
		Requests: f.requests,
		Seed:     f.seed,
		FaultPct: f.faultPct,
		Pacing:   f.pacing,
	})
	if report != nil {
		printReport(w, report, reg)
		if f.out != "" {
			if werr := writeReport(f.out, report); werr != nil && err == nil {
				err = werr
			} else if werr == nil {
				fmt.Fprintf(w, "report written to %s\n", f.out)
			}
		}
	}
	return err
}

func parseLevels(s string) ([]int, error) {
	var levels []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -levels entry %q", part)
		}
		levels = append(levels, n)
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("-levels is empty")
	}
	return levels, nil
}

func printReport(w io.Writer, r *loadtest.Report, reg *obs.Registry) {
	fmt.Fprintf(w, "%-6s %8s %6s %9s %5s %7s %9s %9s %9s\n",
		"conc", "requests", "ok", "degraded", "shed", "typed", "p50 ms", "p95 ms", "p99 ms")
	for _, lr := range r.Levels {
		typed := 0
		for _, n := range lr.TypedErrors {
			typed += n
		}
		fmt.Fprintf(w, "%-6d %8d %6d %9d %5d %7d %9.2f %9.2f %9.2f\n",
			lr.Concurrency, lr.Requests, lr.OK, lr.Degraded, lr.Shed, typed,
			lr.P50MS, lr.P95MS, lr.P99MS)
		if lr.Mismatches > 0 || lr.Untyped > 0 {
			fmt.Fprintf(w, "  !! %d mismatches, %d untyped failures\n", lr.Mismatches, lr.Untyped)
		}
	}
	// Server-side shed/degrade counters from the daemon's own registry.
	snap := reg.Snapshot()
	var names []string
	for _, m := range snap {
		if strings.HasPrefix(m.Name, "serve_") && !strings.Contains(m.Name, "latency") {
			names = append(names, m.Name)
		}
	}
	sort.Strings(names)
	fmt.Fprintln(w, "server counters:")
	for _, n := range names {
		fmt.Fprintf(w, "  %s %d\n", n, snap.Value(n))
	}
}

// benchDoc is the BENCH_serve.json envelope, following the repository's
// BENCH_*.json convention: what ran, how to rerun it, what the numbers
// mean, then the raw report.
type benchDoc struct {
	Benchmark   string           `json:"benchmark"`
	Description string           `json:"description"`
	Command     string           `json:"command"`
	Contract    string           `json:"contract"`
	Report      *loadtest.Report `json:"report"`
}

func writeReport(path string, r *loadtest.Report) error {
	doc := benchDoc{
		Benchmark: "gdpd mixed-traffic load harness",
		Description: "The gdpd daemon self-hosted on a loopback port with fault injection enabled, " +
			"driven with a seeded mix of compile/partition/sweep/best requests across all schemes " +
			"at each concurrency level; the fault share of requests carries an injected eval-stage " +
			"fault with fallback (graceful degradation), an injected serve-stage fault (typed 500), " +
			"or a 1 ms deadline (typed 504 unless the warm cache legitimately beats it).",
		Command: "make bench-serve  (go run ./cmd/gdpd -loadtest -levels 1,4,16 -requests 96 " +
			"-seed 1 -faultpct 25 -pacing 20ms -maxconcurrent 2 -queue 4 -rate 250 -burst 20)",
		Contract: "Every 200 is compared byte-for-byte against a serial oracle pass over the same " +
			"request population (the deterministic `result` object only); every non-200 must carry a " +
			"typed error code. mismatches and untyped must be zero at every level or the run exits " +
			"nonzero. Latency percentiles are over successful requests and vary with the runner — as " +
			"do shed counts, which come from queue pressure on multicore runners and from the token " +
			"bucket on single-core ones; the correctness columns do not vary.",
		Report: r,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
