// Package serve is the gdpd daemon: the mcpart partitioning pipeline
// behind a hardened HTTP+JSON surface (DESIGN.md §14). The robustness
// contract it layers over the facade:
//
//   - Admission control. A token bucket sheds sustained over-rate traffic
//     with 429 before any work happens; a bounded queue in front of the
//     worker semaphore sheds burst overflow with 503. Shed requests cost
//     O(1) — the daemon degrades by refusing crisply, never by slowing
//     everyone down.
//   - Per-request budgets. Every request runs under its own deadline
//     (body timeout_ms, clamped to the server maximum) plus the profiling
//     step/byte budgets; a blown budget is that request's typed error and
//     nobody else's problem.
//   - Containment. A panic anywhere in a request surfaces as HTTP 500 on
//     that request; the daemon keeps serving. One request's cancellation
//     never poisons the shared caches (see mcpart.Session).
//   - Graceful degradation. With fallback enabled, a failing scheme
//     degrades GDP→ProfileMax→Naive and the response says so in the
//     `degraded` field — a correct weaker answer beats an error.
//   - Memory ceiling. When the process heap crosses the configured
//     ceiling, the session's caches shrink (programs evicted, memoization
//     bounded); results are unaffected, only cache temperature.
//   - Drain. Shutdown stops accepting (readyz flips 503), lets in-flight
//     requests finish — or cancels them cleanly at the drain deadline, so
//     every accepted request still gets a response — and flushes the
//     artifact store.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"mcpart"
	"mcpart/internal/defaults"
	"mcpart/internal/obs"
	"mcpart/internal/parallel"
)

// Config assembles a Server.
type Config struct {
	// Session is the shared compile/evaluate facade (required).
	Session *mcpart.Session
	// MaxConcurrent bounds requests doing pipeline work at once
	// (non-positive: GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a worker slot beyond the
	// concurrent ones; the queue full, further requests shed with 503
	// (non-positive: 64).
	QueueDepth int
	// RatePerSec is the token-bucket admission rate; 0 disables rate
	// limiting. Burst is the bucket size (non-positive: max(1, rate)).
	RatePerSec float64
	Burst      int
	// DefaultTimeout applies when a request names no timeout_ms;
	// MaxTimeout clamps what a request may ask for (non-positive: 30s and
	// 2m respectively).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MemCeilingBytes triggers cache shrinking when the heap crosses it
	// (0 disables). MemKeepPrograms is how many compiled programs survive
	// a shrink (non-positive: 1). MemProbe overrides the heap reading for
	// tests (nil: runtime.ReadMemStats HeapAlloc).
	MemCeilingBytes int64
	MemKeepPrograms int
	MemProbe        func() int64
	// AllowInject honors per-request fault-injection specs (load tests
	// only); Inject is the server-side hook consulted at every serve stage
	// for every request.
	AllowInject bool
	Inject      func(stage string) error
	// Observer receives the daemon's metrics (and /metrics renders its
	// registry). Nil creates a private one.
	Observer *obs.Observer
	// Now overrides the token bucket's clock for tests (nil: time.Now).
	Now func() time.Time
}

// Server is the daemon. Create with New, expose Handler over HTTP, stop
// with Drain.
type Server struct {
	cfg     Config
	o       *obs.Observer
	session *mcpart.Session
	bucket  *bucket
	sem     chan struct{}

	mu       sync.Mutex // guards draining + inflight admission handshake
	draining bool
	inflight sync.WaitGroup

	queueMu sync.Mutex
	queued  int

	// baseCtx cancels every in-flight request at the drain deadline.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	memMu sync.Mutex
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Session == nil {
		panic("serve: Config.Session is required")
	}
	o := cfg.Observer
	if o == nil {
		o = obs.New(obs.NewRegistry(), nil, nil)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	s := &Server{
		cfg:     cfg,
		o:       o,
		session: cfg.Session,
		sem:     make(chan struct{}, defaults.Int(cfg.MaxConcurrent, runtime.GOMAXPROCS(0))),
		bucket:  newBucket(cfg.RatePerSec, cfg.Burst, now),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	// Register the headline counters up front so /metrics reports explicit
	// zeros from the first scrape.
	for _, name := range []string{
		"serve_requests", "serve_ok", "serve_errors",
		"serve_shed_rate", "serve_shed_queue", "serve_shed_drain",
		"serve_degraded", "serve_panics", "serve_injected",
		"serve_timeouts", "serve_mem_releases",
	} {
		o.Counter(name)
	}
	return s
}

func (s *Server) queueDepth() int { return defaults.Int(s.cfg.QueueDepth, 64) }
func (s *Server) defaultTimeout() time.Duration {
	return defaults.Duration(s.cfg.DefaultTimeout, 30*time.Second)
}
func (s *Server) maxTimeout() time.Duration {
	return defaults.Duration(s.cfg.MaxTimeout, 2*time.Minute)
}

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.api("compile", s.doCompile))
	mux.HandleFunc("POST /v1/partition", s.api("partition", s.doPartition))
	mux.HandleFunc("POST /v1/sweep", s.api("sweep", s.doSweep))
	mux.HandleFunc("POST /v1/best", s.api("best", s.doBest))
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /readyz", s.readyz)
	mux.HandleFunc("GET /metrics", s.metrics)
	return mux
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	// Liveness: 200 while the process serves at all — including during
	// drain, when readiness is already down but killing the process would
	// lose in-flight requests.
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	obs.WritePrometheus(w, s.o.Registry().Snapshot())
}

// opFunc is one endpoint's work: turn a decoded request into the
// deterministic result payload (plus optional degradation info).
type opFunc func(ctx context.Context, req *APIRequest, mreq mcpart.Request) (any, *DegradedInfo, error)

// api wraps an endpoint in the full admission/budget/containment pipeline.
// Stage order (each one an injection point): decode → admit → the
// endpoint's own work (compile and the eval stages) → respond.
func (s *Server) api(endpoint string, op opFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.o.Counter("serve_requests").Add(1)
		s.o.Counter(`serve_requests{endpoint="` + endpoint + `"}`).Add(1)

		// Accept-or-drain handshake: past this gate the request is
		// accepted and drain waits for it.
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			s.o.Counter("serve_shed_drain").Add(1)
			s.writeError(w, endpoint, start, 0, http.StatusServiceUnavailable, "draining", "server is draining")
			return
		}
		s.inflight.Add(1)
		s.mu.Unlock()
		defer s.inflight.Done()

		// Panic containment: a request bug is that request's 500.
		defer func() {
			if pe := parallel.Recovered("serve:"+endpoint, -1, recover()); pe != nil {
				s.o.Counter("serve_panics").Add(1)
				s.writeError(w, endpoint, start, 0, http.StatusInternalServerError, "internal", pe.Error())
			}
		}()

		// Stage: decode.
		if err := s.injectServe("decode", nil); err != nil {
			s.o.Counter("serve_injected").Add(1)
			s.writeError(w, endpoint, start, 0, http.StatusInternalServerError, "injected", err.Error())
			return
		}
		var req APIRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&req); err != nil {
			s.writeError(w, endpoint, start, 0, http.StatusBadRequest, "bad_request", "body: "+err.Error())
			return
		}
		if req.Inject != nil && !s.cfg.AllowInject {
			s.writeError(w, endpoint, start, 0, http.StatusBadRequest, "bad_request", "fault injection is not enabled on this server")
			return
		}
		if err := s.injectServe("decode", req.Inject); err != nil {
			s.o.Counter("serve_injected").Add(1)
			s.writeError(w, endpoint, start, 0, http.StatusInternalServerError, "injected", err.Error())
			return
		}

		// Stage: admit — token bucket, then the bounded queue.
		if err := s.injectServe("admit", req.Inject); err != nil {
			s.o.Counter("serve_injected").Add(1)
			s.writeError(w, endpoint, start, 0, http.StatusInternalServerError, "injected", err.Error())
			return
		}
		if !s.bucket.allow() {
			s.o.Counter("serve_shed_rate").Add(1)
			s.writeError(w, endpoint, start, 0, http.StatusTooManyRequests, "rate_limited", "request rate over the admission limit")
			return
		}
		s.queueMu.Lock()
		if s.queued >= s.queueDepth() {
			s.queueMu.Unlock()
			s.o.Counter("serve_shed_queue").Add(1)
			s.writeError(w, endpoint, start, 0, http.StatusServiceUnavailable, "overloaded", "admission queue is full")
			return
		}
		s.queued++
		s.queueMu.Unlock()
		queueStart := time.Now()
		select {
		case s.sem <- struct{}{}:
		case <-r.Context().Done():
			s.dequeue()
			s.writeError(w, endpoint, start, time.Since(queueStart), http.StatusGatewayTimeout, "canceled", "canceled while queued")
			return
		case <-s.baseCtx.Done():
			s.dequeue()
			s.o.Counter("serve_shed_drain").Add(1)
			s.writeError(w, endpoint, start, time.Since(queueStart), http.StatusServiceUnavailable, "draining", "drain deadline while queued")
			return
		}
		s.dequeue()
		queueWait := time.Since(queueStart)
		defer func() { <-s.sem }()

		// Per-request context: client disconnect or the drain hard-cancel
		// both end it; the per-request timeout rides in mcpart.Request.
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		stop := context.AfterFunc(s.baseCtx, cancel)
		defer stop()

		mreq, err := s.mcRequest(&req)
		if err != nil {
			s.writeError(w, endpoint, start, queueWait, http.StatusBadRequest, "bad_request", err.Error())
			return
		}

		result, degraded, err := op(ctx, &req, mreq)
		if err != nil {
			status, code := classify(err)
			if code == "deadline" {
				s.o.Counter("serve_timeouts").Add(1)
			}
			if code == "injected" {
				s.o.Counter("serve_injected").Add(1)
			}
			s.writeError(w, endpoint, start, queueWait, status, code, err.Error())
			return
		}

		// Stage: respond.
		if err := s.injectServe("respond", req.Inject); err != nil {
			s.o.Counter("serve_injected").Add(1)
			s.writeError(w, endpoint, start, queueWait, http.StatusInternalServerError, "injected", err.Error())
			return
		}
		raw, err := json.Marshal(result)
		if err != nil {
			s.writeError(w, endpoint, start, queueWait, http.StatusInternalServerError, "internal", "encode: "+err.Error())
			return
		}
		if degraded != nil {
			s.o.Counter("serve_degraded").Add(1)
		}
		s.o.Counter("serve_ok").Add(1)
		s.writeJSON(w, http.StatusOK, &APIResponse{
			OK:        true,
			Result:    raw,
			Degraded:  degraded,
			Telemetry: s.telemetry(start, queueWait),
		})
		s.o.Histogram("serve_latency_ms", 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000).
			Observe(time.Since(start).Milliseconds())
		s.checkMemory()
	}
}

func (s *Server) dequeue() {
	s.queueMu.Lock()
	s.queued--
	s.queueMu.Unlock()
}

// mcRequest projects the wire request onto the facade's Request.
func (s *Server) mcRequest(req *APIRequest) (mcpart.Request, error) {
	timeout := s.defaultTimeout()
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if max := s.maxTimeout(); timeout > max {
		timeout = max
	}
	mreq := mcpart.Request{
		Timeout:    timeout,
		MaxSteps:   req.MaxSteps,
		MaxBytes:   req.MaxBytes,
		Unroll:     req.Unroll,
		NoOptimize: req.NoOptimize,
		Validate:   req.Validate,
		Fallback:   req.Fallback,
		Workers:    req.Workers,
	}
	if req.Inject != nil {
		switch req.Inject.Stage {
		case "data", "partition", "sched", "validate":
			spec := *req.Inject
			mreq.Inject = func(scheme mcpart.Scheme, stage string) error {
				if stage != spec.Stage {
					return nil
				}
				if spec.Scheme != "" && !equalScheme(scheme, spec.Scheme) {
					return nil
				}
				return &InjectedError{Stage: stage}
			}
		case "decode", "admit", "compile", "respond":
			// Serve-stage faults are raised by injectServe/injectCompile.
		default:
			return mcpart.Request{}, fmt.Errorf("unknown inject stage %q", req.Inject.Stage)
		}
	}
	return mreq, nil
}

func equalScheme(s mcpart.Scheme, name string) bool {
	switch name {
	case "unified":
		return s == mcpart.SchemeUnified
	case "gdp":
		return s == mcpart.SchemeGDP
	case "profilemax", "pmax":
		return s == mcpart.SchemeProfileMax
	case "naive":
		return s == mcpart.SchemeNaive
	}
	return false
}

// injectServe consults both fault sources — the server-wide hook and the
// per-request spec — for a serve stage.
func (s *Server) injectServe(stage string, spec *InjectSpec) error {
	if s.cfg.Inject != nil {
		if err := s.cfg.Inject(stage); err != nil {
			return err
		}
	}
	if spec != nil && s.cfg.AllowInject && spec.Stage == stage {
		return &InjectedError{Stage: stage}
	}
	return nil
}

// telemetry builds the nondeterministic response sidecar.
func (s *Server) telemetry(start time.Time, queueWait time.Duration) *Telemetry {
	return &Telemetry{
		ElapsedMS:   float64(time.Since(start).Microseconds()) / 1e3,
		QueueWaitMS: float64(queueWait.Microseconds()) / 1e3,
	}
}

func (s *Server) writeError(w http.ResponseWriter, endpoint string, start time.Time, queueWait time.Duration, status int, code, msg string) {
	s.o.Counter("serve_errors").Add(1)
	s.o.Counter(`serve_errors{code="` + code + `"}`).Add(1)
	s.writeJSON(w, status, &APIResponse{
		OK:        false,
		Error:     &APIError{Code: code, Message: msg},
		Telemetry: s.telemetry(start, queueWait),
	})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, resp *APIResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}

// checkMemory shrinks the session's caches when the heap is over the
// ceiling. Called after completed requests; cheap when disabled.
func (s *Server) checkMemory() {
	if s.cfg.MemCeilingBytes <= 0 {
		return
	}
	s.memMu.Lock()
	defer s.memMu.Unlock()
	heap := s.heapBytes()
	if heap <= s.cfg.MemCeilingBytes {
		return
	}
	keep := defaults.Int(s.cfg.MemKeepPrograms, 1)
	s.session.ReleaseMemory(keep)
	s.o.Counter("serve_mem_releases").Add(1)
}

func (s *Server) heapBytes() int64 {
	if s.cfg.MemProbe != nil {
		return s.cfg.MemProbe()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// Drain performs graceful shutdown: stop accepting (readyz 503, new
// requests shed with 503 draining), wait for every accepted request to
// finish — and once ctx expires, cancel what is still running so each
// still gets a (cancellation) response — then flush the artifact store.
// Idempotent; returns the flush error.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		// Drain deadline: hard-cancel in-flight requests. They unwind
		// through their normal error paths (each accepted request still
		// writes a response) and inflight drains promptly.
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	return s.session.Flush()
}
