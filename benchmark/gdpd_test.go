package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slowServer answers every request with an OK envelope after d.
func slowServer(t *testing.T, d time.Duration) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(d)
		io.WriteString(w, `{"ok":true,"result":{}}`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// fakeRequests hands out n requests, as runStep asks for them.
func fakeRequests(n int) func(i int) *request {
	return func(i int) *request {
		if i >= n {
			return nil
		}
		return &request{endpoint: "/v1/partition", raw: []byte(`{}`)}
	}
}

// TestOpenLoopLateness offers 100 requests/s to a server that takes 30 ms
// per request over two connections: the backlog grows, and every request's
// wait for a free connection counts toward its latency from its due time,
// while the generator itself sends on time.
func TestOpenLoopLateness(t *testing.T) {
	srv := slowServer(t, 30*time.Millisecond)
	clients := []*http.Client{newClient(), newClient()}
	out := runStep(clients, srv.URL, fakeRequests(8), 100, 0)
	if len(out) != 8 {
		t.Fatalf("%d outcomes, want 8", len(out))
	}
	for i := range out {
		o := &out[i]
		if !o.ok() {
			t.Fatalf("request %d failed: %v", i, o.err)
		}
		if got, want := o.due.Sub(out[0].due), time.Duration(i)*10*time.Millisecond; got != want {
			t.Errorf("request %d due %v after the first, want %v", i, got, want)
		}
		if o.ready.Before(o.due) || o.sent.Before(o.ready) || o.done.Sub(o.sent) < 30*time.Millisecond {
			t.Errorf("request %d: due %v ready %v sent %v done %v out of order", i, o.due, o.ready, o.sent, o.done)
		}
		if late := o.sent.Sub(o.ready); late > 20*time.Millisecond {
			t.Errorf("request %d: generator %v late", i, late)
		}
		if got, want := o.latencyMS(), ms(o.done.Sub(o.due)); got != want {
			t.Errorf("request %d: latency %v ms, want %v from its due time", i, got, want)
		}
	}
	// Each connection serves every other request, 30 ms each against 20 ms
	// of schedule: the last one waits about 30 ms for a connection.
	if wait := out[7].ready.Sub(out[7].due); wait < 20*time.Millisecond {
		t.Errorf("last request waited %v for a connection, want about 30ms", wait)
	}
	if lat := out[7].latencyMS(); lat < 50 {
		t.Errorf("last request latency %v ms, want its wait plus 30 ms", lat)
	}
}

// TestClosedLoop runs two connections back to back for 100 ms against a
// 10 ms server: no request waits, and about 20 are sent.
func TestClosedLoop(t *testing.T) {
	srv := slowServer(t, 10*time.Millisecond)
	clients := []*http.Client{newClient(), newClient()}
	out := runStep(clients, srv.URL, fakeRequests(100), 0, 100*time.Millisecond)
	if len(out) < 6 || len(out) > 24 {
		t.Errorf("%d requests in 100 ms on two 10 ms connections, want about 20", len(out))
	}
	for i := range out {
		if o := &out[i]; !o.ok() || !o.ready.Equal(o.due) {
			t.Errorf("request %d: ok %v, due %v, ready %v", i, o.ok(), o.due, o.ready)
		}
	}
}

func TestSeedDeterminesUnits(t *testing.T) {
	work := t.TempDir()
	lists := map[string]func(seed int64) []string{
		"suite-matrix": func(seed int64) []string { return unitNames(suiteMatrix(runConfig{seed: seed})) },
		"dse-sweep":    func(seed int64) []string { return unitNames(dseSweep(runConfig{seed: seed})) },
		"warm-restart": func(seed int64) []string { return unitNames(warmRestart(runConfig{seed: seed}, work)) },
		"gdpd-mixed": func(seed int64) []string {
			// Past the first block, as a closed loop draws them.
			checks := 0
			pl := newPlanner(seed, 0, &checks)
			var keys []string
			for i := 0; i < 2*gdpdBlock+10; i++ {
				keys = append(keys, pl.at(i).key())
			}
			return keys
		},
	}
	for name, list := range lists {
		a, b, c := list(1), list(1), list(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different unit lists", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same unit list", name)
		}
	}
}

// unitNames lists a batch's first two passes.
func unitNames(b *batch) []string {
	var names []string
	for n := 0; n < 2; n++ {
		for _, u := range b.units(n) {
			names = append(names, u.name)
		}
	}
	return names
}

// TestPlannerMarksChecks draws past the first block: the run's first
// generated requests, and only as many as asked, are marked for the
// reference checks, and every request is handed out once.
func TestPlannerMarksChecks(t *testing.T) {
	checks := 5
	pl := newPlanner(1, 0, &checks)
	marked, generated := 0, 0
	for i := 0; i < 2*gdpdBlock+10; i++ {
		r := pl.at(i)
		if r.body.Source != "" {
			generated++
			if r.check {
				if generated > 5 {
					t.Errorf("generated request %d marked, want only the first 5", generated)
				}
				marked++
			}
		}
	}
	if marked != 5 || checks != 0 {
		t.Errorf("%d marked, %d checks left, want 5 and 0", marked, checks)
	}
	if generated < 2*gdpdBlock/5 {
		t.Errorf("%d generated requests in %d, want a fifth", generated, 2*gdpdBlock+10)
	}
	for i, r := range pl.reqs[:2*gdpdBlock+10] {
		if r != nil {
			t.Fatalf("planner still holds request %d after handing it out", i)
		}
	}
}

// TestPlannerConcurrent draws from one planner on two goroutines, as the
// closed loop's two connections do: every request comes out exactly once.
func TestPlannerConcurrent(t *testing.T) {
	checks := gdpdCheckedProgen
	pl := newPlanner(3, 0, &checks)
	const n = 3 * gdpdBlock
	var next atomic.Int64
	got := make([]*request, n)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				got[i] = pl.at(i)
			}
		}()
	}
	wg.Wait()
	seen := map[*request]bool{}
	for i, r := range got {
		if r == nil || seen[r] {
			t.Fatalf("request %d: %p, nil or handed out twice", i, r)
		}
		seen[r] = true
	}
}
