// api.go defines gdpd's wire format. The envelope deliberately separates
// the deterministic `result` object — byte-identical for a given request
// no matter the concurrency, cache temperature, or fault weather around it
// — from the nondeterministic `telemetry` object (wall times, cache
// counters). The load-test oracle compares `result` bytes against a serial
// reference run; anything that may legitimately vary lives in telemetry.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"mcpart"
	"mcpart/internal/bench"
	"mcpart/internal/check"
	"mcpart/internal/parallel"
	"mcpart/internal/profile"
)

// APIRequest is the body of every /v1/* POST. Source and Bench are
// alternatives: inline mclang source, or the name of a bundled benchmark.
type APIRequest struct {
	Name   string `json:"name,omitempty"`
	Source string `json:"source,omitempty"`
	Bench  string `json:"bench,omitempty"`

	// Front-end knobs (see mcpart.CompileOptions).
	Unroll     int   `json:"unroll,omitempty"`
	NoOptimize bool  `json:"no_optimize,omitempty"`
	MaxSteps   int64 `json:"max_steps,omitempty"`
	MaxBytes   int64 `json:"max_bytes,omitempty"`

	// TimeoutMS bounds this request's wall clock; 0 takes the server
	// default, and the server clamps to its maximum either way.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Machine selects the target (POST /v1/partition, /v1/sweep, /v1/best).
	Machine MachineSpec `json:"machine,omitempty"`

	// Scheme is unified | gdp | profilemax | naive (POST /v1/partition).
	Scheme string `json:"scheme,omitempty"`

	// Evaluation knobs.
	Validate   bool `json:"validate,omitempty"`
	Fallback   bool `json:"fallback,omitempty"`
	Workers    int  `json:"workers,omitempty"`
	MaxObjects int  `json:"max_objects,omitempty"`

	// Inject requests a fault at one stage (honored only when the server
	// runs with fault injection enabled; otherwise rejected).
	Inject *InjectSpec `json:"inject,omitempty"`
}

// MachineSpec names a machine preset.
type MachineSpec struct {
	// Preset is paper2 (default) | four | eight | hetero2 | ring4 | ring8 |
	// mesh4 | mesh8 | numa4.
	Preset string `json:"preset,omitempty"`
	// MoveLatency is the intercluster move latency in cycles (default 5,
	// one of the paper's three points).
	MoveLatency int `json:"move_latency,omitempty"`
}

// InjectSpec asks the server to fail one stage of this request: a serve
// stage (decode | admit | compile | respond) or an eval pipeline stage
// (data | partition | sched | validate). For eval stages, Scheme limits
// the fault to one scheme so the degradation chain has somewhere to go.
type InjectSpec struct {
	Stage  string `json:"stage"`
	Scheme string `json:"scheme,omitempty"`
}

// APIResponse is the envelope of every /v1/* response.
type APIResponse struct {
	OK bool `json:"ok"`
	// Result is the deterministic payload (one of the *Result types
	// below); null on error.
	Result json.RawMessage `json:"result,omitempty"`
	// Degraded is set when graceful degradation substituted a fallback
	// scheme for the requested one.
	Degraded *DegradedInfo `json:"degraded,omitempty"`
	Error    *APIError     `json:"error,omitempty"`
	// Telemetry is the nondeterministic sidecar: wall times and cache
	// counters. Oracles must ignore it.
	Telemetry *Telemetry `json:"telemetry,omitempty"`
}

// APIError is a typed request failure.
type APIError struct {
	// Code is the machine-readable class: bad_request | bad_program |
	// budget_exceeded | rate_limited | overloaded | draining | deadline |
	// canceled | injected | validation_failed | internal.
	Code    string `json:"code"`
	Message string `json:"message"`
}

// DegradedInfo records a scheme substitution in the response body.
type DegradedInfo struct {
	// From is the scheme originally requested.
	From string `json:"from"`
	// Error is why it failed.
	Error string `json:"error"`
}

// Telemetry is the nondeterministic response sidecar.
type Telemetry struct {
	ElapsedMS   float64 `json:"elapsed_ms"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	MemoHits    uint64  `json:"memo_hits,omitempty"`
	MemoMisses  uint64  `json:"memo_misses,omitempty"`
}

// CompileResult is /v1/compile's deterministic payload.
type CompileResult struct {
	Name      string `json:"name"`
	Checksum  int64  `json:"checksum"`
	Functions int    `json:"functions"`
	Objects   int    `json:"objects"`
}

// PartitionResult is /v1/partition's deterministic payload.
type PartitionResult struct {
	// Scheme is the scheme that actually produced the numbers (the
	// fallback under degradation; the envelope's Degraded field names the
	// one requested).
	Scheme string `json:"scheme"`
	Cycles int64  `json:"cycles"`
	Moves  int64  `json:"moves"`
	// DataMap is the object→cluster assignment in object-ID order (null
	// for unified).
	DataMap []int `json:"data_map,omitempty"`
	// Validated reports that the independent validator re-checked this
	// result (request had validate=true).
	Validated bool `json:"validated,omitempty"`
}

// SweepResult is /v1/sweep's deterministic payload.
type SweepResult struct {
	Points   int    `json:"points"`
	Best     int64  `json:"best"`
	Worst    int64  `json:"worst"`
	GDPMask  uint64 `json:"gdp_mask"`
	PMaxMask uint64 `json:"pmax_mask"`
}

// BestResult is /v1/best's deterministic payload.
type BestResult struct {
	Mask   uint64 `json:"mask"`
	Cycles int64  `json:"cycles"`
	Moves  int64  `json:"moves"`
}

// resolveSource returns the (name, source) pair a request names, loading
// bundled benchmarks by name.
func (r *APIRequest) resolveSource() (string, string, error) {
	switch {
	case r.Bench != "" && r.Source != "":
		return "", "", errors.New("body names both source and bench")
	case r.Bench != "":
		b, err := bench.Get(r.Bench)
		if err != nil {
			return "", "", err
		}
		return b.Name, b.Source, nil
	case r.Source != "":
		name := r.Name
		if name == "" {
			name = "request"
		}
		return name, r.Source, nil
	default:
		return "", "", errors.New("body names neither source nor bench")
	}
}

// machine resolves the request's machine spec.
func (r *APIRequest) machine() (*mcpart.Machine, error) {
	lat := r.Machine.MoveLatency
	if lat <= 0 {
		lat = 5
	}
	return mcpart.MachinePreset(r.Machine.Preset, lat)
}

// scheme resolves the request's scheme name.
func (r *APIRequest) scheme() (mcpart.Scheme, error) {
	switch r.Scheme {
	case "unified":
		return mcpart.SchemeUnified, nil
	case "gdp":
		return mcpart.SchemeGDP, nil
	case "profilemax", "pmax":
		return mcpart.SchemeProfileMax, nil
	case "naive":
		return mcpart.SchemeNaive, nil
	default:
		return "", fmt.Errorf("unknown scheme %q (want unified|gdp|profilemax|naive)", r.Scheme)
	}
}

// dataMapSlice renders a DataMap as a dense object-ID-ordered slice (the
// deterministic wire form; Go map iteration order must never leak into
// result bytes).
func dataMapSlice(dm mcpart.DataMap) []int {
	if dm == nil {
		return nil
	}
	ids := make([]int, 0, len(dm))
	for id := range dm {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = dm[id]
	}
	return out
}

// RequestError marks a failure as the request body's fault (unknown
// preset, missing source, bad scheme name): HTTP 400 code "bad_request".
type RequestError struct {
	Err error
}

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// InjectedError is the typed error the fault-injection hooks raise; the
// error taxonomy maps it to HTTP 500 code "injected" (unless graceful
// degradation absorbed it first).
type InjectedError struct {
	Stage string
}

func (e *InjectedError) Error() string { return "injected fault at stage " + e.Stage }

// classify maps an error from the pipeline onto the wire taxonomy: an HTTP
// status and a machine-readable code. The order matters — cancellation
// outranks everything (a canceled request often wraps its cause), then the
// typed domain errors, then the catch-all internal class.
func classify(err error) (status int, code string) {
	var (
		be *profile.BudgetError
		ie *InjectedError
		ve *check.Error
		pe *parallel.PanicError
		me *mcpart.InternalError
		re *RequestError
	)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return 504, "deadline"
	case errors.Is(err, context.Canceled):
		return 504, "canceled"
	case errors.As(err, &re):
		return 400, "bad_request"
	case errors.As(err, &be):
		if be.Resource == "deadline" {
			return 504, "deadline"
		}
		return 422, "budget_exceeded"
	case errors.As(err, &ie):
		return 500, "injected"
	case errors.As(err, &ve):
		return 500, "validation_failed"
	case errors.As(err, &pe), errors.As(err, &me):
		return 500, "internal"
	default:
		// Anything else the pipeline raises on the way in is the input's
		// fault: parse/type errors, unknown functions, bad specs.
		return 400, "bad_program"
	}
}
