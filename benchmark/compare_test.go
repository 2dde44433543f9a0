package main

import (
	"strings"
	"testing"
)

// runs maps seeds 1..n to the given values.
func runs(vs ...float64) map[int64]float64 {
	m := make(map[int64]float64, len(vs))
	for i, v := range vs {
		m[int64(i+1)] = v
	}
	return m
}

func TestJudge(t *testing.T) {
	parent := runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		name   string
		better string
		change map[int64]float64
		want   string
	}{
		{"same runs", "lower", runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100), "unchanged"},
		{"within the bound", "lower", runs(104, 105, 103, 104, 106, 102, 104, 105, 103, 104), "unchanged"},
		{"worse by more than the bound", "lower", runs(112, 113, 111, 112, 114, 110, 112, 113, 111, 112), "regression"},
		{"lower is better: a clear gain", "lower", runs(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), "gain"},
		{"higher is better: lower values regress", "higher", runs(85, 86, 84, 85, 87, 83, 85, 86, 84, 85), "regression"},
		{"higher is better: a clear gain", "higher", runs(112, 113, 111, 112, 114, 110, 112, 113, 111, 112), "gain"},
		{"spread wider than the bound", "lower", runs(80, 120, 90, 110, 100, 85, 115, 95, 105, 100), "unresolved"},
		{"wins too few pairs for a gain", "lower", runs(90, 91, 89, 90, 92, 88, 90, 91, 105, 106), "unchanged"},
	}
	for _, c := range cases {
		if got := judge(c.better, 0.10, parent, c.change).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestProbeMovedIsUnresolved compares two identical sets of runs whose
// probe readings differ: the scaled times are unresolved, the rest judged
// as usual.
func TestProbeMovedIsUnresolved(t *testing.T) {
	s := &spec{EndToEnd: []specMetric{
		{Name: "latency_p50_ms", Better: "lower", Bound: 0.10},
		{Name: "peak_rss_mb", Better: "lower", Bound: 0.10},
	}}
	s.Workloads = append(s.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	set := func(probe float64) map[string]map[int64]*record {
		rs := map[int64]*record{}
		for seed := int64(1); seed <= 10; seed++ {
			rs[seed] = &record{ProbeMS: probe, Result: &result{Metrics: map[string]metricValue{
				"latency_p50_ms": {Value: 100}, "peak_rss_mb": {Value: 50}}}}
		}
		return map[string]map[int64]*record{"w": rs}
	}
	var out strings.Builder
	if code := printVerdicts(s, set(1.0), set(1.05), &out); code != 0 {
		t.Errorf("probe moved 5%% under a 10%% bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := printVerdicts(s, set(1.0), set(1.2), &out); code != 1 {
		t.Errorf("probe moved 20%%: exit %d, want 1\n%s", code, out.String())
	}
	for _, l := range strings.Split(out.String(), "\n") {
		f := strings.Fields(l)
		switch {
		case len(f) > 1 && f[1] == "latency_p50_ms" && !strings.Contains(l, "unresolved"):
			t.Errorf("scaled time not unresolved: %s", l)
		case len(f) > 1 && f[1] == "peak_rss_mb" && !strings.HasSuffix(l, "unchanged"):
			t.Errorf("peak RSS not unchanged: %s", l)
		}
	}
}
