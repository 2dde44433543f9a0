package serve

// serve_test.go pins the daemon's robustness headline behaviors one by
// one: correct results over the wire, the typed error taxonomy, token
// bucket and queue shedding, per-request fault injection with graceful
// degradation, panic containment, the memory ceiling, and lossless drain.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcpart"
	"mcpart/internal/obs"
)

// newTestServer builds a Server (and its Session) with test-friendly
// defaults; callers override cfg fields via mutate.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := Config{
		Session:  mcpart.NewSession(mcpart.SessionOptions{}),
		Observer: obs.New(reg, nil, nil),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		cfg.Session.Close()
	})
	return s, ts
}

// post sends one API request and decodes the envelope.
func post(t *testing.T, url, endpoint string, req any) (int, *APIResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env APIResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("%s: decode envelope: %v", endpoint, err)
	}
	return resp.StatusCode, &env
}

func decodeResult[T any](t *testing.T, env *APIResponse) *T {
	t.Helper()
	var out T
	if err := json.Unmarshal(env.Result, &out); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	return &out
}

// TestServeEndpointsMatchFacade pins that every endpoint returns exactly
// the one-shot facade's numbers over the wire.
func TestServeEndpointsMatchFacade(t *testing.T) {
	_, ts := newTestServer(t, nil)
	m := mcpart.Paper2Cluster(5)
	p, err := mcpart.LoadBenchmark("fir")
	if err != nil {
		t.Fatal(err)
	}

	status, env := post(t, ts.URL, "/v1/compile", APIRequest{Bench: "fir"})
	if status != 200 || !env.OK {
		t.Fatalf("compile: %d %+v", status, env.Error)
	}
	cr := decodeResult[CompileResult](t, env)
	if cr.Checksum != p.Checksum() || cr.Name != "fir" {
		t.Fatalf("compile result %+v, want checksum %d", cr, p.Checksum())
	}

	want, err := mcpart.Evaluate(p, m, mcpart.SchemeGDP, mcpart.Options{})
	if err != nil {
		t.Fatal(err)
	}
	status, env = post(t, ts.URL, "/v1/partition", APIRequest{Bench: "fir", Scheme: "gdp", Validate: true})
	if status != 200 || !env.OK {
		t.Fatalf("partition: %d %+v", status, env.Error)
	}
	pr := decodeResult[PartitionResult](t, env)
	if pr.Cycles != want.Cycles || pr.Moves != want.Moves || pr.Scheme != "GDP" || !pr.Validated {
		t.Fatalf("partition result %+v, want %d cycles %d moves", pr, want.Cycles, want.Moves)
	}
	if env.Degraded != nil {
		t.Fatalf("clean request reported degradation: %+v", env.Degraded)
	}

	sweep, err := mcpart.ExhaustiveSearch(p, m, mcpart.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	status, env = post(t, ts.URL, "/v1/sweep", APIRequest{Bench: "fir"})
	if status != 200 || !env.OK {
		t.Fatalf("sweep: %d %+v", status, env.Error)
	}
	sr := decodeResult[SweepResult](t, env)
	if sr.Points != len(sweep.Points) || sr.Best != sweep.Best || sr.Worst != sweep.Worst {
		t.Fatalf("sweep result %+v vs facade %d points best %d worst %d",
			sr, len(sweep.Points), sweep.Best, sweep.Worst)
	}

	best, err := mcpart.BestMapping(p, m, mcpart.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	status, env = post(t, ts.URL, "/v1/best", APIRequest{Bench: "fir"})
	if status != 200 || !env.OK {
		t.Fatalf("best: %d %+v", status, env.Error)
	}
	br := decodeResult[BestResult](t, env)
	if br.Mask != best.Mask || br.Cycles != best.Cycles {
		t.Fatalf("best result %+v, want mask %#x cycles %d", br, best.Mask, best.Cycles)
	}
	if sr.Best != br.Cycles {
		t.Fatalf("sweep best %d != branch-and-bound best %d", sr.Best, br.Cycles)
	}
}

// TestServeTopologyPresets drives the daemon on the topology machine
// presets: every preset resolves over the wire, the validated partition
// matches the one-shot facade on the same machine, and the
// branch-and-bound endpoint agrees with the facade's optimum.
func TestServeTopologyPresets(t *testing.T) {
	_, ts := newTestServer(t, nil)
	p, err := mcpart.LoadBenchmark("fir")
	if err != nil {
		t.Fatal(err)
	}
	for _, preset := range []string{"ring8", "mesh4", "mesh8", "numa4"} {
		m, err := mcpart.MachinePreset(preset, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mcpart.Evaluate(p, m, mcpart.SchemeGDP, mcpart.Options{})
		if err != nil {
			t.Fatal(err)
		}
		status, env := post(t, ts.URL, "/v1/partition", APIRequest{
			Bench: "fir", Scheme: "gdp", Validate: true,
			Machine: MachineSpec{Preset: preset},
		})
		if status != 200 || !env.OK {
			t.Fatalf("%s partition: %d %+v", preset, status, env.Error)
		}
		pr := decodeResult[PartitionResult](t, env)
		if pr.Cycles != want.Cycles || pr.Moves != want.Moves || !pr.Validated {
			t.Fatalf("%s: wire result %+v, facade wants %d cycles %d moves validated",
				preset, pr, want.Cycles, want.Moves)
		}
	}
	best, err := mcpart.BestMapping(p, mustPreset(t, "mesh4"), mcpart.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	status, env := post(t, ts.URL, "/v1/best", APIRequest{
		Bench: "fir", Machine: MachineSpec{Preset: "mesh4"},
	})
	if status != 200 || !env.OK {
		t.Fatalf("mesh4 best: %d %+v", status, env.Error)
	}
	br := decodeResult[BestResult](t, env)
	if br.Mask != best.Mask || br.Cycles != best.Cycles {
		t.Fatalf("mesh4 best over the wire %+v, facade mask %#x cycles %d",
			br, best.Mask, best.Cycles)
	}
}

func mustPreset(t *testing.T, name string) *mcpart.Machine {
	t.Helper()
	m, err := mcpart.MachinePreset(name, 5)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestServeErrorTaxonomy pins the typed 4xx/5xx classes: every bad input
// fails crisply with the right code, never a 200 with wrong numbers and
// never an untyped 500.
func TestServeErrorTaxonomy(t *testing.T) {
	_, ts := newTestServer(t, nil)

	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"malformed json", "{not json", 400, "bad_request"},
		{"no source", `{"scheme":"gdp"}`, 400, "bad_request"},
		{"both sources", `{"bench":"fir","source":"fn main() int {return 0;}","scheme":"gdp"}`, 400, "bad_request"},
		{"unknown bench", `{"bench":"nope","scheme":"gdp"}`, 400, "bad_request"},
		{"unknown scheme", `{"bench":"fir","scheme":"quantum"}`, 400, "bad_request"},
		{"unknown preset", `{"bench":"fir","scheme":"gdp","machine":{"preset":"cray"}}`, 400, "bad_request"},
		{"unknown inject stage", `{"bench":"fir","scheme":"gdp","inject":{"stage":"warp"}}`, 400, "bad_request"},
		{"bad program", `{"name":"x","source":"fn main( {","scheme":"gdp"}`, 400, "bad_program"},
		{"step budget", `{"bench":"fir","scheme":"gdp","max_steps":10}`, 422, "budget_exceeded"},
		{"byte budget", `{"bench":"fir","scheme":"gdp","max_bytes":8}`, 422, "budget_exceeded"},
		{"timeout", `{"bench":"fir","scheme":"gdp","timeout_ms":1}`, 504, ""},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/partition", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var env APIResponse
		json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%+v)", tc.name, resp.StatusCode, tc.status, env.Error)
			continue
		}
		if env.OK || env.Error == nil {
			t.Errorf("%s: error envelope missing: %+v", tc.name, env)
			continue
		}
		if tc.code != "" && env.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, env.Error.Code, tc.code)
		}
	}
	// "inject without AllowInject" is rejected, not silently ignored.
	status, env := post(t, ts.URL, "/v1/partition",
		APIRequest{Bench: "fir", Scheme: "gdp", Inject: &InjectSpec{Stage: "partition"}})
	if status != 400 || env.Error == nil || env.Error.Code != "bad_request" {
		t.Fatalf("inject on non-inject server: %d %+v", status, env.Error)
	}
}

// TestServeRateLimit pins token-bucket shedding under a deterministic
// clock: burst admits, the next request sheds 429, refill re-admits.
func TestServeRateLimit(t *testing.T) {
	clock := time.Unix(1000, 0)
	var clockMu sync.Mutex
	now := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return clock }
	srv, ts := newTestServer(t, func(c *Config) {
		c.RatePerSec = 1
		c.Burst = 2
		c.Now = now
	})

	for i := 0; i < 2; i++ {
		if status, env := post(t, ts.URL, "/v1/compile", APIRequest{Bench: "fir"}); status != 200 {
			t.Fatalf("burst request %d: %d %+v", i, status, env.Error)
		}
	}
	status, env := post(t, ts.URL, "/v1/compile", APIRequest{Bench: "fir"})
	if status != 429 || env.Error == nil || env.Error.Code != "rate_limited" {
		t.Fatalf("over-rate request: %d %+v", status, env.Error)
	}
	if got := srv.o.Registry().Snapshot().Value("serve_shed_rate"); got != 1 {
		t.Fatalf("serve_shed_rate = %d, want 1", got)
	}
	clockMu.Lock()
	clock = clock.Add(time.Second)
	clockMu.Unlock()
	if status, env := post(t, ts.URL, "/v1/compile", APIRequest{Bench: "fir"}); status != 200 {
		t.Fatalf("post-refill request: %d %+v", status, env.Error)
	}
}

// TestServeQueueShed pins bounded-queue load shedding: with every worker
// slot busy and the queue full, the next request is refused with 503
// overloaded instead of piling up.
func TestServeQueueShed(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.QueueDepth = 1
	})
	// Occupy the single worker slot directly.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	// One request fits in the queue (it parks waiting for the slot)...
	queued := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json",
			strings.NewReader(`{"bench":"fir"}`))
		if err == nil {
			queued <- resp
		}
	}()
	// Wait until it is actually parked.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.queueMu.Lock()
		q := srv.queued
		srv.queueMu.Unlock()
		if q == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued request never parked")
		}
		time.Sleep(time.Millisecond)
	}
	// ...the next one sheds.
	status, env := post(t, ts.URL, "/v1/compile", APIRequest{Bench: "fir"})
	if status != 503 || env.Error == nil || env.Error.Code != "overloaded" {
		t.Fatalf("overflow request: %d %+v", status, env.Error)
	}
	if got := srv.o.Registry().Snapshot().Value("serve_shed_queue"); got != 1 {
		t.Fatalf("serve_shed_queue = %d, want 1", got)
	}
	// Free the slot; the parked request completes normally.
	<-srv.sem
	defer func() { srv.sem <- struct{}{} }() // rebalance for the deferred drain
	select {
	case resp := <-queued:
		if resp.StatusCode != 200 {
			t.Fatalf("parked request finished %d", resp.StatusCode)
		}
		resp.Body.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("parked request never completed")
	}
}

// TestServeInjectionAndDegradation pins per-request fault injection at
// every stage and the graceful degradation chain: an injected GDP failure
// with fallback enabled returns ProfileMax's exact numbers plus an honest
// degraded marker — never a wrong answer dressed as success.
func TestServeInjectionAndDegradation(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.AllowInject = true })

	for _, stage := range []string{"decode", "admit", "compile", "respond"} {
		status, env := post(t, ts.URL, "/v1/partition",
			APIRequest{Bench: "fir", Scheme: "gdp", Inject: &InjectSpec{Stage: stage}})
		if status != 500 || env.Error == nil || env.Error.Code != "injected" {
			t.Fatalf("inject %s: %d %+v", stage, status, env.Error)
		}
	}
	// Eval-stage fault without fallback: typed injected error.
	status, env := post(t, ts.URL, "/v1/partition",
		APIRequest{Bench: "fir", Scheme: "gdp", Inject: &InjectSpec{Stage: "partition", Scheme: "gdp"}})
	if status != 500 || env.Error == nil || env.Error.Code != "injected" {
		t.Fatalf("partition-stage inject: %d %+v", status, env.Error)
	}

	// Same fault under fallback: 200, ProfileMax's exact numbers, honest
	// degradation marker.
	p, err := mcpart.LoadBenchmark("fir")
	if err != nil {
		t.Fatal(err)
	}
	want, err := mcpart.Evaluate(p, mcpart.Paper2Cluster(5), mcpart.SchemeProfileMax, mcpart.Options{})
	if err != nil {
		t.Fatal(err)
	}
	status, env = post(t, ts.URL, "/v1/partition",
		APIRequest{Bench: "fir", Scheme: "gdp", Fallback: true,
			Inject: &InjectSpec{Stage: "partition", Scheme: "gdp"}})
	if status != 200 || !env.OK {
		t.Fatalf("degraded request: %d %+v", status, env.Error)
	}
	if env.Degraded == nil || env.Degraded.From != "GDP" || !strings.Contains(env.Degraded.Error, "injected") {
		t.Fatalf("degraded marker: %+v", env.Degraded)
	}
	pr := decodeResult[PartitionResult](t, env)
	if pr.Scheme != "ProfileMax" || pr.Cycles != want.Cycles || pr.Moves != want.Moves {
		t.Fatalf("degraded result %+v, want ProfileMax %d cycles %d moves", pr, want.Cycles, want.Moves)
	}
	if got := srv.o.Registry().Snapshot().Value("serve_degraded"); got != 1 {
		t.Fatalf("serve_degraded = %d, want 1", got)
	}

	// The injected fault never contaminated the shared caches: the same
	// request without injection returns clean GDP numbers.
	cleanWant, err := mcpart.Evaluate(p, mcpart.Paper2Cluster(5), mcpart.SchemeGDP, mcpart.Options{})
	if err != nil {
		t.Fatal(err)
	}
	status, env = post(t, ts.URL, "/v1/partition", APIRequest{Bench: "fir", Scheme: "gdp"})
	if status != 200 {
		t.Fatalf("clean request after faults: %d %+v", status, env.Error)
	}
	pr = decodeResult[PartitionResult](t, env)
	if pr.Scheme != "GDP" || pr.Cycles != cleanWant.Cycles || env.Degraded != nil {
		t.Fatalf("post-fault clean result %+v degraded %+v, want GDP %d", pr, env.Degraded, cleanWant.Cycles)
	}
}

// TestServePanicContainment pins that a panic inside a request becomes
// that request's 500 and the daemon keeps serving.
func TestServePanicContainment(t *testing.T) {
	var boom bool
	srv, ts := newTestServer(t, func(c *Config) {
		c.Inject = func(stage string) error {
			if boom && stage == "compile" {
				panic("synthetic handler bug")
			}
			return nil
		}
	})
	boom = true
	status, env := post(t, ts.URL, "/v1/compile", APIRequest{Bench: "fir"})
	if status != 500 || env.Error == nil || env.Error.Code != "internal" {
		t.Fatalf("panicking request: %d %+v", status, env.Error)
	}
	if got := srv.o.Registry().Snapshot().Value("serve_panics"); got != 1 {
		t.Fatalf("serve_panics = %d, want 1", got)
	}
	boom = false
	if status, env := post(t, ts.URL, "/v1/compile", APIRequest{Bench: "fir"}); status != 200 {
		t.Fatalf("request after panic: %d %+v", status, env.Error)
	}
}

// TestServeMemoryCeiling pins the memory-pressure path: when the heap
// probe crosses the ceiling, the session's program cache shrinks (counted
// in serve_mem_releases) and the daemon keeps answering correctly.
func TestServeMemoryCeiling(t *testing.T) {
	var heap int64 = 1 << 20
	var heapMu sync.Mutex
	session := mcpart.NewSession(mcpart.SessionOptions{})
	srv, ts := newTestServer(t, func(c *Config) {
		c.Session = session
		c.MemCeilingBytes = 1 << 30
		c.MemKeepPrograms = 1
		c.MemProbe = func() int64 { heapMu.Lock(); defer heapMu.Unlock(); return heap }
	})
	for _, unroll := range []int{1, 2} {
		if status, env := post(t, ts.URL, "/v1/compile", APIRequest{Bench: "fir", Unroll: unroll}); status != 200 {
			t.Fatalf("warmup: %d %+v", status, env.Error)
		}
	}
	if got := session.Stats().Programs; got != 2 {
		t.Fatalf("resident programs before pressure: %d", got)
	}
	heapMu.Lock()
	heap = 2 << 30
	heapMu.Unlock()
	if status, env := post(t, ts.URL, "/v1/compile", APIRequest{Bench: "fir", Unroll: 1}); status != 200 {
		t.Fatalf("pressured request: %d %+v", status, env.Error)
	}
	if got := srv.o.Registry().Snapshot().Value("serve_mem_releases"); got == 0 {
		t.Fatal("serve_mem_releases did not advance under pressure")
	}
	if got := session.Stats().Programs; got > 1 {
		t.Fatalf("resident programs after release: %d, want <= 1", got)
	}
	heapMu.Lock()
	heap = 1 << 20
	heapMu.Unlock()
	if status, env := post(t, ts.URL, "/v1/compile", APIRequest{Bench: "fir", Unroll: 2}); status != 200 {
		t.Fatalf("request after release: %d %+v", status, env.Error)
	}
}

// TestServeDrainGraceful pins the drain contract's happy path: readiness
// flips, new requests shed, in-flight requests finish with 200, Drain
// returns only after they do.
func TestServeDrainGraceful(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	srv, ts := newTestServer(t, func(c *Config) {
		c.Inject = func(stage string) error {
			if stage == "compile" {
				<-gate
			}
			return nil
		}
	})

	inflight := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(`{"bench":"fir"}`))
		if err == nil {
			inflight <- resp
		}
	}()
	waitForInflight(t, srv, 1)

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	waitForDraining(t, srv)

	// Readiness is down, liveness stays up, new work sheds.
	if code := getStatus(t, ts.URL+"/readyz"); code != 503 {
		t.Fatalf("readyz during drain = %d", code)
	}
	if code := getStatus(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz during drain = %d", code)
	}
	status, env := post(t, ts.URL, "/v1/compile", APIRequest{Bench: "fir"})
	if status != 503 || env.Error == nil || env.Error.Code != "draining" {
		t.Fatalf("request during drain: %d %+v", status, env.Error)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned with a request still in flight")
	default:
	}

	// Release the in-flight request: it completes with 200 and Drain
	// returns.
	gateOnce.Do(func() { close(gate) })
	select {
	case resp := <-inflight:
		if resp.StatusCode != 200 {
			t.Fatalf("in-flight request finished %d during drain", resp.StatusCode)
		}
		resp.Body.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned")
	}
}

// TestServeDrainDeadline pins the drain contract's hard path: at the drain
// deadline, queued requests are cut loose with a typed 503 — every
// accepted request still gets exactly one response.
func TestServeDrainDeadline(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.QueueDepth = 4
	})
	// Jam the single worker slot so requests park in the queue.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	const parked = 3
	responses := make(chan int, parked)
	for i := 0; i < parked; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(`{"bench":"fir"}`))
			if err != nil {
				responses <- -1
				return
			}
			resp.Body.Close()
			responses <- resp.StatusCode
		}()
	}
	waitForQueued(t, srv, parked)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i := 0; i < parked; i++ {
		select {
		case code := <-responses:
			if code != 503 {
				t.Fatalf("parked request %d finished %d, want 503", i, code)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("parked request lost in drain")
		}
	}
}

func waitForInflight(t *testing.T, srv *Server, _ int) {
	t.Helper()
	// The in-flight request is parked inside the compile-stage hook; poll
	// the request counter as the accepted marker.
	deadline := time.Now().Add(5 * time.Second)
	for srv.o.Registry().Snapshot().Value("serve_requests") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never accepted")
		}
		time.Sleep(time.Millisecond)
	}
	// Give it a beat to pass the accept gate.
	time.Sleep(10 * time.Millisecond)
}

func waitForDraining(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	draining := func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.draining
	}
	for !draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
}

func waitForQueued(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.queueMu.Lock()
		q := srv.queued
		srv.queueMu.Unlock()
		if q >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests parked", q, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestServeMetricsEndpoint pins that /metrics renders the registry in
// Prometheus format with the headline counters present from the start.
func TestServeMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, name := range []string{"serve_requests", "serve_shed_rate", "serve_shed_queue", "serve_degraded", "serve_panics"} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("metrics output missing %s:\n%s", name, body)
		}
	}
	if status, env := post(t, ts.URL, "/v1/compile", APIRequest{Bench: "fir"}); status != 200 {
		t.Fatalf("compile: %d %+v", status, env.Error)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `serve_requests{endpoint="compile"} 1`) {
		t.Fatalf("per-endpoint counter missing:\n%s", body)
	}
}

// TestServeConcurrentMixedTraffic is a smoke-scale version of the load
// harness: concurrent mixed requests (several benches and schemes, some
// injected faults, some tight timeouts) against serial oracles; every
// success must match its oracle exactly.
func TestServeConcurrentMixedTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed-traffic test skipped in -short")
	}
	_, ts := newTestServer(t, func(c *Config) { c.AllowInject = true })

	type oracle struct{ cycles, moves int64 }
	m := mcpart.Paper2Cluster(5)
	oracles := map[string]oracle{}
	for _, bench := range []string{"fir", "fsed"} {
		p, err := mcpart.LoadBenchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		for name, scheme := range map[string]mcpart.Scheme{
			"gdp": mcpart.SchemeGDP, "profilemax": mcpart.SchemeProfileMax, "naive": mcpart.SchemeNaive,
		} {
			r, err := mcpart.Evaluate(p, m, scheme, mcpart.Options{})
			if err != nil {
				t.Fatal(err)
			}
			oracles[bench+"/"+name] = oracle{r.Cycles, r.Moves}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			benches := []string{"fir", "fsed"}
			schemes := []string{"gdp", "profilemax", "naive"}
			for i := 0; i < 8; i++ {
				req := APIRequest{
					Bench:  benches[(w+i)%2],
					Scheme: schemes[(w+i)%3],
				}
				wantKey := req.Bench + "/" + req.Scheme
				switch (w + i) % 5 {
				case 3:
					req.Inject = &InjectSpec{Stage: "partition", Scheme: req.Scheme}
					req.Fallback = true
				case 4:
					req.TimeoutMS = 1
				}
				status, env := post(t, ts.URL, "/v1/partition", req)
				switch {
				case status == 200 && env.Degraded == nil:
					pr := decodeResult[PartitionResult](t, env)
					want := oracles[wantKey]
					if pr.Cycles != want.cycles || pr.Moves != want.moves {
						errs <- fmt.Errorf("%s: got (%d,%d) want (%d,%d)", wantKey, pr.Cycles, pr.Moves, want.cycles, want.moves)
					}
				case status == 200 && env.Degraded != nil:
					pr := decodeResult[PartitionResult](t, env)
					want, ok := oracles[req.Bench+"/"+strings.ToLower(pr.Scheme)]
					if pr.Scheme == "ProfileMax" {
						want, ok = oracles[req.Bench+"/profilemax"], true
					}
					if ok && (pr.Cycles != want.cycles || pr.Moves != want.moves) {
						errs <- fmt.Errorf("%s degraded to %s: got (%d,%d) want (%d,%d)",
							wantKey, pr.Scheme, pr.Cycles, pr.Moves, want.cycles, want.moves)
					}
				case status == 504, status == 500, status == 422:
					// typed failure: acceptable under injected faults/timeouts
				default:
					errs <- fmt.Errorf("%s: unexpected status %d (%+v)", wantKey, status, env.Error)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
