package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mcpart"
	"mcpart/internal/bench"
	"mcpart/internal/obs"
	"mcpart/internal/progen"
	"mcpart/internal/serve"
)

// The gdpd-mixed traffic is an assumed mix, not one recorded from callers
// or given by the paper: partitions of every bundled program on the
// paper's machine and the 4-cluster mesh, sweeps of the Figure 9
// programs, best-mapping searches on the two smallest of them on the
// mesh, and GDP on never-seen generated programs. See README.md.
var (
	gdpdSchemes  = []string{"unified", "gdp", "profilemax", "naive"}
	gdpdMachines = []string{"paper2", "mesh4"}
	gdpdBest     = []string{"fir", "halftone"}
)

const (
	// gdpdRate is the middle offered rate of a traced run.
	gdpdRate = 50
	// gdpdPeak is the highest offered rate.
	gdpdPeak = 100
	// gdpdTimeoutMS is every request's deadline; a request that misses it
	// fails.
	gdpdTimeoutMS = 10_000
	// gdpdPrograms is the daemon's compiled-program cache size: the 21
	// bundled programs plus a window of generated ones, so the bundled
	// programs stay cached and the run does not depend on how the two
	// connections' requests interleave with the evictions.
	gdpdPrograms = 128
	// gdpdBlock is how many requests a step draws at a time.
	gdpdBlock = 100
	// gdpdSegment is the length in seconds of a closed-loop segment; the
	// probe reads between segments.
	gdpdSegment = 0.3
)

// request is one planned gdpd request with its body already encoded.
// check marks a request on a generated program that the reference checks
// answer again; the others are not kept once answered.
type request struct {
	endpoint string
	body     serve.APIRequest
	raw      []byte
	check    bool
}

func newRequest(endpoint string, body serve.APIRequest) request {
	body.Workers = 1
	body.TimeoutMS = gdpdTimeoutMS
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err) // APIRequest always encodes
	}
	return request{endpoint: endpoint, body: body, raw: raw}
}

func (r *request) key() string { return r.endpoint + " " + string(r.raw) }

func partitionRequest(b, scheme, preset string, validate bool) request {
	return newRequest("/v1/partition", serve.APIRequest{Bench: b, Scheme: scheme, Machine: serve.MachineSpec{Preset: preset}, Validate: validate})
}

// bundledClasses are the four classes of bundled requests in the mix, each
// listing every distinct request of the class once: unvalidated and
// validated partitions, Figure 9 sweeps, and best-mapping searches on the
// 4-cluster mesh.
func bundledClasses() [4][]request {
	var cs [4][]request
	for _, b := range bench.All() {
		for _, m := range gdpdMachines {
			for _, s := range gdpdSchemes {
				cs[0] = append(cs[0], partitionRequest(b.Name, s, m, false))
				cs[1] = append(cs[1], partitionRequest(b.Name, s, m, true))
			}
		}
	}
	for _, b := range bench.All() {
		if b.Exhaustive {
			cs[2] = append(cs[2], newRequest("/v1/sweep", serve.APIRequest{Bench: b.Name}))
		}
	}
	for _, b := range gdpdBest {
		cs[3] = append(cs[3], newRequest("/v1/best", serve.APIRequest{Bench: b, Machine: serve.MachineSpec{Preset: "mesh4"}}))
	}
	return cs
}

// gdpdShapes lists every distinct bundled request of the mix once.
func gdpdShapes() []request {
	var rs []request
	for _, c := range bundledClasses() {
		rs = append(rs, c...)
	}
	return rs
}

// gdpdShares are the percentages of the mix: the four bundled classes of
// bundledClasses (60% partitions, a fifth of them validated; 10% sweeps;
// 10% best-mapping searches), then GDP on never-seen generated programs,
// each one a cold compile.
var gdpdShares = [5]int{48, 12, 10, 10, 20}

// gdpdPlan draws n requests of the mix. The shares are exact and the order
// is seeded, and each bundled class cycles through a seeded permutation of
// its requests, so runs with different seeds offer nearly the same bundled
// requests: they differ in order and in the generated programs. This is a
// choice of the benchmark, made because with independent draws the share
// of cheap requests alone moved the median latency from run to run; it
// does not model how callers send traffic.
func gdpdPlan(rng *rand.Rand, n int) []request {
	classes := bundledClasses()
	var left [4][]request
	rs := make([]request, n)
	for i, slot := range rng.Perm(n) {
		// Slot j of n belongs to the class whose range of the cumulative
		// percentages holds j/n (the shares add up to 100).
		c, acc := 0, gdpdShares[0]
		for pos := (100*slot + 50) / n; pos >= acc; acc += gdpdShares[c] {
			c++
		}
		if c == len(classes) {
			s := rng.Int63()
			rs[i] = newRequest("/v1/partition", serve.APIRequest{Name: fmt.Sprintf("progen-%d", s),
				Source: progen.Generate(s, progen.Options{}), Scheme: "gdp"})
			continue
		}
		if len(left[c]) == 0 {
			left[c] = append([]request(nil), classes[c]...)
			rng.Shuffle(len(left[c]), func(a, b int) { left[c][a], left[c][b] = left[c][b], left[c][a] })
		}
		rs[i], left[c] = left[c][0], left[c][1:]
	}
	return rs
}

// planner hands out a step's requests in their seeded order, drawing them
// gdpdBlock at a time as the step asks for them, so that a closed loop
// never runs out before its time is up. It hands out each request once and
// then lets go of it.
type planner struct {
	mu    sync.Mutex
	rng   *rand.Rand
	limit int // requests the step may send; 0 for no limit
	reqs  []*request
	// checks is the run's count of generated requests still to be marked
	// for the reference checks.
	checks *int
}

func newPlanner(seed int64, limit int, checks *int) *planner {
	return &planner{rng: rand.New(rand.NewSource(seed)), limit: limit, checks: checks}
}

// at returns the step's request i, or nil past its limit.
func (p *planner) at(i int) *request {
	if p.limit > 0 && i >= p.limit {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fill(i + 1)
	r := p.reqs[i]
	p.reqs[i] = nil
	return r
}

// prefill draws all of an open-loop step's requests.
func (p *planner) prefill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fill(p.limit)
}

// fill draws requests until it has drawn n.
func (p *planner) fill(n int) {
	for len(p.reqs) < n {
		for _, r := range gdpdPlan(p.rng, gdpdBlock) {
			if r.body.Source != "" && *p.checks > 0 {
				r.check = true
				*p.checks--
			}
			p.reqs = append(p.reqs, &r)
		}
	}
}

// daemon is gdpd on a loopback listener, serving at most two requests at
// once (the machine's two cores).
type daemon struct {
	session *mcpart.Session
	reg     *obs.Registry // the session's metrics; nil when untraced
	srv     *httptest.Server
}

func startDaemon(traced bool) *daemon {
	d := &daemon{}
	var o *obs.Observer
	if traced {
		d.reg = obs.NewRegistry()
		o = obs.New(d.reg, nil, nil)
	}
	d.session = mcpart.NewSession(mcpart.SessionOptions{Observer: o, MaxPrograms: gdpdPrograms})
	d.srv = httptest.NewServer(serve.New(serve.Config{Session: d.session, MaxConcurrent: 2}).Handler())
	return d
}

func (d *daemon) close() {
	d.srv.Close()
	d.session.Close()
}

// newClient is one client connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   2 * gdpdTimeoutMS * time.Millisecond,
	}
}

// outcome is one sent request. due is when the schedule wanted it sent,
// ready when a connection was free for it (later than due when both were
// busy), sent when the generator actually sent it.
type outcome struct {
	req                    *request
	seq                    int // the request's number in its step
	due, ready, sent, done time.Time
	status                 int
	env                    serve.APIResponse // without its result
	result                 [sha256.Size]byte // the result's digest
	unchecked              bool              // a generated request left out of the checks
	err                    error
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK && o.env.OK }

// latencyMS is the time from due to response, +Inf for a failure.
func (o *outcome) latencyMS() float64 {
	if !o.ok() {
		return math.Inf(1)
	}
	return ms(o.done.Sub(o.due))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func send(c *http.Client, url string, r *request) (int, serve.APIResponse, error) {
	var env serve.APIResponse
	resp, err := c.Post(url+r.endpoint, "application/json", bytes.NewReader(r.raw))
	if err != nil {
		return 0, env, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&env)
	return resp.StatusCode, env, err
}

// runStep sends the requests next hands out (next(i) is request i, nil
// when there are no more) over the given connections. With a positive
// rate it is an open loop: request i is due i/rate seconds after the
// start, and a request whose connections are all busy goes out late, its
// latency still counted from its due time. With rate 0 it is a closed
// loop: each connection sends its next request as soon as the previous one
// returns, until dur has passed. It returns the outcomes of the requests
// sent.
func runStep(clients []*http.Client, url string, next func(i int) *request, rate float64, dur time.Duration) []outcome {
	var mu sync.Mutex
	var out []outcome
	var n atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			free := start // when this connection's previous request returned
			var mine []outcome
			for rate > 0 || time.Since(start) < dur {
				i := int(n.Add(1) - 1)
				r := next(i)
				if r == nil {
					break
				}
				o := outcome{req: r, due: free, ready: free, seq: i}
				if rate > 0 {
					o.due = start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
					if o.ready.Before(o.due) {
						o.ready = o.due
					}
					sleepUntil(o.due)
				} else {
					// Due when drawn, after the connection came free.
					now := time.Now()
					o.due, o.ready = now, now
				}
				o.sent = time.Now()
				o.status, o.env, o.err = send(c, url, o.req)
				o.done = time.Now()
				// Keep the result's digest, not its bytes: a run's thousands
				// of results would otherwise grow the peak resident set with
				// the number of requests served.
				o.result, o.env.Result = sha256.Sum256(o.env.Result), nil
				if r.body.Source != "" && !r.check {
					o.req, o.unchecked = &request{endpoint: r.endpoint}, true
				}
				free = o.done
				mine = append(mine, o)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// sleepUntil returns at t. The runtime's timers wake a sleeper up to a
// millisecond late, as much as a fast request takes, so the last
// millisecond is spent yielding to other goroutines instead.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > time.Millisecond {
		time.Sleep(d - time.Millisecond)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// gdpdStep is one measured step: an offered rate, or rate 0 for the closed
// loop, for dur seconds.
type gdpdStep struct {
	rate   float64
	dur    float64
	traced bool
	out    []outcome
	wall   float64 // seconds
}

// runGdpd is the daemon under mixed traffic from two client connections.
// An untraced run keeps both connections busy (closed loop): two callers
// that each wait for their reply. A traced run offers requests at fixed
// rates (open loop), 50 requests/s to an untraced daemon and then 25, 50
// and 100 to a traced one, a quarter of the time each. Set-up starts a
// daemon and sends every distinct bundled request once.
func runGdpd(cfg runConfig, tr *tracer) (*result, map[string]float64, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	clients := []*http.Client{newClient(), newClient()}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()
	shapes := trim(cfg, gdpdShapes())
	reps := cfg.setupReps
	if reps <= 0 {
		reps = 3
	}
	if cfg.trace {
		reps = max(reps, 2)
	}
	p, err := startProbe(probeMap)
	if err != nil {
		return nil, nil, err
	}
	defer p.close()
	// Every set-up starts a new daemon. Only the ones the steps use stay
	// open: the last, and for a traced run the untraced one before it
	// (plain), so the peak resident set holds no other set-up's caches.
	var plain, last *daemon
	defer func() {
		for _, d := range []*daemon{plain, last} {
			if d != nil {
				d.close()
			}
		}
	}()
	var setupTimes []float64
	p.readings(1)
	for rep := 0; rep < reps; rep++ {
		traced := cfg.trace && rep == reps-1
		if last != nil {
			if traced {
				plain = last
			} else {
				last.close()
				runtime.GC() // return its caches before the next set-up
			}
			last = nil
		}
		t0 := time.Now()
		last = startDaemon(traced)
		for i := range shapes {
			status, env, err := send(clients[0], last.srv.URL, &shapes[i])
			if err == nil && (status != http.StatusOK || !env.OK) {
				err = fmt.Errorf("status %d: %+v", status, env.Error)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("setup %s: %w", shapes[i].key(), err)
			}
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		p.readings(setupReadings)
	}
	measured := len(p.ms)

	var steps []gdpdStep
	if cfg.trace {
		q := cfg.seconds / 4
		steps = []gdpdStep{{rate: gdpdRate, dur: q}, {rate: 25, dur: q, traced: true},
			{rate: gdpdRate, dur: q, traced: true}, {rate: gdpdPeak, dur: q, traced: true}}
	} else {
		// The closed loop runs in short segments with a probe reading
		// between them, so the readings spread over the run.
		n := max(1, int(math.Round(cfg.seconds/gdpdSegment)))
		for i := 0; i < n; i++ {
			steps = append(steps, gdpdStep{dur: cfg.seconds / float64(n)})
		}
	}
	base := last.snapshot()
	// The closed loop's segments draw from one seeded stream, each going on
	// where the previous one stopped; an open-loop step has a stream of its
	// own, drawn in full before it starts.
	checks := gdpdCheckedProgen
	closed, sent := newPlanner(rng.Int63(), 0, &checks), 0
	for i := range steps {
		s := &steps[i]
		d := last
		if !s.traced && plain != nil {
			d = plain
		}
		next := func(i int) *request { return closed.at(sent + i) }
		if s.rate > 0 {
			pl := newPlanner(rng.Int63(), max(1, int(s.rate*s.dur)), &checks)
			pl.prefill()
			next = pl.at
		}
		// The probe reads while the daemon is idle, so that the daemon's own
		// load never slows it.
		p.due()
		t0 := time.Now()
		s.out = runStep(clients, d.srv.URL, next, s.rate, time.Duration(s.dur*1e9))
		s.wall = time.Since(t0).Seconds()
		if s.rate == 0 {
			sent += len(s.out)
		}
	}
	p.due()

	if p.err != nil {
		return nil, nil, p.err
	}
	f := p.factor(measured, len(p.ms))
	vals := map[string]float64{"setup_s": median(setupTimes) * p.factor(0, measured), mProbe: median(p.ms)}
	res := &result{}
	for _, s := range steps {
		for i := range s.out {
			res.Attempted++
			if !s.out[i].ok() {
				res.Failed++
			}
		}
	}
	vals["peak_rss_mb"] = peakRSSMB() // before the reference checks add their own memory
	cycles, mismatches := verifyGdpd(shapes, steps)
	res.Correct = mismatches == 0
	vals["code_cycles"] = float64(cycles)
	if cfg.trace {
		gdpdLayers(tr, steps, last, base, vals)
		return res, vals, nil
	}
	var lat []float64
	var wall float64
	for i := range steps {
		for _, l := range latencies(steps[i].out) {
			lat = append(lat, l*f)
		}
		wall += steps[i].wall * f
	}
	vals["latency_p50_ms"] = percentile(lat, 0.50, gdpdTimeoutMS)
	vals["latency_p90_ms"] = percentile(lat, 0.90, gdpdTimeoutMS)
	vals["throughput_per_s"] = float64(res.Attempted-res.Failed) / wall
	return res, vals, nil
}

func stepAt(steps []gdpdStep, rate float64, traced bool) *gdpdStep {
	for i := range steps {
		if s := &steps[i]; s.rate == rate && s.traced == traced {
			return s
		}
	}
	return nil
}

func latencies(out []outcome) []float64 {
	xs := make([]float64, len(out))
	for i := range out {
		xs[i] = out[i].latencyMS()
	}
	return xs
}

// daemonSnapshot is the traced daemon's counters at one moment.
type daemonSnapshot struct {
	session mcpart.SessionStats
	metrics obs.Snapshot
}

func (d *daemon) snapshot() daemonSnapshot {
	return daemonSnapshot{d.session.Stats(), d.reg.Snapshot()}
}

// gdpdLayers computes the per-layer metrics of the traced steps: the
// daemon's own time and queueing from each response's telemetry, the HTTP
// round trip around it, the generator's lateness (how long after a
// connection was free it actually sent), and the session's and pipeline's
// counters since set-up. Each request becomes a span from its due time to
// its response, with the wait for a free connection and the HTTP round
// trip as children and the server's time (placed at the end of the round
// trip) as the round trip's child; the root's self time is the lateness.
func gdpdLayers(tr *tracer, steps []gdpdStep, d *daemon, base daemonSnapshot, vals map[string]float64) {
	var server, queue, rtt, late []float64
	shed, n := 0, 0
	for _, s := range steps {
		if !s.traced {
			continue
		}
		for i := range s.out {
			o := &s.out[i]
			n++
			late = append(late, ms(o.sent.Sub(o.ready)))
			if o.env.Error != nil && (o.env.Error.Code == "rate_limited" || o.env.Error.Code == "overloaded") {
				shed++
			}
			if o.err != nil || o.env.Telemetry == nil {
				continue
			}
			t := o.env.Telemetry
			rt := ms(o.done.Sub(o.sent))
			server = append(server, t.ElapsedMS)
			queue = append(queue, t.QueueWaitMS)
			rtt = append(rtt, rt-t.ElapsedMS)
			srvStart := o.done.Add(-time.Duration(t.ElapsedMS * 1e6))
			if srvStart.Before(o.sent) {
				srvStart = o.sent
			}
			tr.add([]span{
				{Name: "request " + o.req.endpoint, Layer: mHarness, Unit: n - 1, Start: o.due.UnixNano(), End: o.done.UnixNano()},
				{Name: "wait for a connection", Layer: "client.wait", Unit: n - 1, Start: o.due.UnixNano(), End: o.ready.UnixNano()},
				{Name: "POST " + o.req.endpoint, Layer: "serve.http", Unit: n - 1, Start: o.sent.UnixNano(), End: o.done.UnixNano()},
				{Name: "gdpd " + o.req.endpoint, Layer: "serve.server", Unit: n - 1, Start: srvStart.UnixNano(), End: o.done.UnixNano()},
			})
		}
	}
	tr.units = n
	tr.layerMetrics(vals)
	vals["serve.server_ms_p50"] = percentile(server, 0.50, gdpdTimeoutMS)
	vals["serve.queue_wait_ms_p90"] = percentile(queue, 0.90, gdpdTimeoutMS)
	vals["serve.http_ms_p50"] = percentile(rtt, 0.50, gdpdTimeoutMS)
	vals["serve.shed"] = float64(shed) / float64(max(n, 1))
	vals["harness.gen_late_ms_p90"] = percentile(late, 0.90, gdpdTimeoutMS)
	vals["serve.latency_p90_ms.r25"] = percentile(latencies(stepAt(steps, 25, true).out), 0.90, gdpdTimeoutMS)
	vals["serve.latency_p50_ms.r50"] = percentile(latencies(stepAt(steps, gdpdRate, true).out), 0.50, gdpdTimeoutMS)
	vals["serve.latency_p90_ms.r50"] = percentile(latencies(stepAt(steps, gdpdRate, true).out), 0.90, gdpdTimeoutMS)
	vals["serve.latency_p90_ms.r100"] = percentile(latencies(stepAt(steps, gdpdPeak, true).out), 0.90, gdpdTimeoutMS)
	plainP50 := percentile(latencies(stepAt(steps, gdpdRate, false).out), 0.50, gdpdTimeoutMS)
	vals[mOverhead] = 100 * (percentile(latencies(stepAt(steps, gdpdRate, true).out), 0.50, gdpdTimeoutMS)/plainP50 - 1)

	now := d.snapshot()
	hits, misses := now.session.Hits-base.session.Hits, now.session.Misses-base.session.Misses
	if hits+misses > 0 {
		vals["mcpart.session_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	delta := func(name string) float64 { return float64(now.metrics.Value(name) - base.metrics.Value(name)) }
	per := float64(max(n, 1))
	counts := map[string]float64{}
	for _, cm := range counterMetrics {
		counts[cm.metric] += delta(cm.counter)
	}
	for metric, c := range counts {
		vals[metric] = c / per
	}
	if hm := delta("memo_hits") + delta("memo_misses"); hm > 0 {
		vals[mMemoHit] = delta("memo_hits") / hm
	}
	vals[mMemoEvict] = delta("memo_evictions") / per
}

// gdpdCheckedProgen bounds the reference checks of responses on generated
// programs, to the run's first ones: each check compiles and evaluates the
// program again, and a run sends over a thousand of them.
const gdpdCheckedProgen = 60

// verifyGdpd compares every 200 response's result digest with that of the
// bytes a serial call through the mcpart facade produces for the same
// request (for
// generated programs, the gdpdCheckedProgen requests marked), and those
// generated programs' checksums with the tree-walking interpreter. It
// returns the summed cycles of the bundled requests' results and the
// mismatch count.
func verifyGdpd(shapes []request, steps []gdpdStep) (int64, int) {
	o := newOracle()
	mismatches := 0
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchmark: reference check:", err)
		mismatches++
	}
	var cycles int64
	for i := range shapes {
		r := &shapes[i]
		want, err := o.result(r)
		if err != nil {
			fail(err)
			continue
		}
		if r.body.Validate {
			continue // the same cycles as the unvalidated shape
		}
		var c struct{ Cycles, Best int64 }
		if err := json.Unmarshal(want, &c); err != nil {
			fail(err)
		}
		cycles += c.Cycles + c.Best
	}
	for _, s := range steps {
		for i := range s.out {
			out := &s.out[i]
			if !out.ok() || out.unchecked {
				continue
			}
			generated := out.req.body.Source != ""
			want, err := o.result(out.req)
			if err != nil {
				fail(err)
				continue
			}
			if out.result != sha256.Sum256(want) {
				fail(fmt.Errorf("%s: daemon's result differs from the facade's %s", out.req.key(), want))
			}
			if generated {
				if err := interpChecksum(out.req.body.Name, out.req.body.Source, o.programs[out.req.body.Name].Checksum()); err != nil {
					fail(err)
				}
			}
		}
	}
	return cycles, mismatches
}

// oracle answers requests serially through the mcpart facade, caching the
// compiled programs and the encoded results.
type oracle struct {
	programs map[string]*mcpart.Program
	results  map[string][]byte
}

func newOracle() *oracle {
	return &oracle{programs: map[string]*mcpart.Program{}, results: map[string][]byte{}}
}

func (o *oracle) result(r *request) ([]byte, error) {
	if b, ok := o.results[r.key()]; ok {
		return b, nil
	}
	b, err := o.compute(r)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", r.key(), err)
	}
	o.results[r.key()] = b
	return b, nil
}

func (o *oracle) compute(r *request) ([]byte, error) {
	name, src := r.body.Name, r.body.Source
	if r.body.Bench != "" {
		b, err := bench.Get(r.body.Bench)
		if err != nil {
			return nil, err
		}
		name, src = b.Name, b.Source
	}
	p, ok := o.programs[name]
	if !ok {
		var err error
		if p, err = mcpart.Compile(name, src); err != nil {
			return nil, err
		}
		o.programs[name] = p
	}
	m, err := mcpart.MachinePreset(r.body.Machine.Preset, 5)
	if err != nil {
		return nil, err
	}
	opts := mcpart.Options{Workers: 1, Validate: r.body.Validate}
	var v any
	switch r.endpoint {
	case "/v1/partition":
		scheme, ok := map[string]mcpart.Scheme{"unified": mcpart.SchemeUnified, "gdp": mcpart.SchemeGDP,
			"profilemax": mcpart.SchemeProfileMax, "naive": mcpart.SchemeNaive}[r.body.Scheme]
		if !ok {
			return nil, fmt.Errorf("unknown scheme %q", r.body.Scheme)
		}
		res, err := mcpart.Evaluate(p, m, scheme, opts)
		if err != nil {
			return nil, err
		}
		v = &serve.PartitionResult{Scheme: string(res.Scheme), Cycles: res.Cycles, Moves: res.Moves, DataMap: res.DataMap, Validated: r.body.Validate}
	case "/v1/sweep":
		ex, err := mcpart.ExhaustiveSearch(p, m, opts, 0)
		if err != nil {
			return nil, err
		}
		v = &serve.SweepResult{Points: len(ex.Points), Best: ex.Best, Worst: ex.Worst, GDPMask: ex.GDPMask, PMaxMask: ex.PMaxMask}
	case "/v1/best":
		br, err := mcpart.BestMapping(p, m, opts, 0)
		if err != nil {
			return nil, err
		}
		v = &serve.BestResult{Mask: br.Mask, Cycles: br.Cycles, Moves: br.Moves}
	default:
		return nil, errors.New("unknown endpoint")
	}
	return json.Marshal(v)
}
