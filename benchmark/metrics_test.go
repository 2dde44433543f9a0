package main

import (
	"math"
	"regexp"
	"sort"
	"testing"
)

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	inf := math.Inf(1)
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := percentile(append([]float64(nil), ten...), 0.5, 1000); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", got)
	}
	if got := percentile(append([]float64(nil), ten...), 0.9, 1000); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	// Eight successes and two failures: the 90th percentile lands on a
	// failure and reads as the limit, and the median moves up from the
	// successes' 4 to 5 (by the failures' rank, not by their time).
	failed := []float64{inf, 8, 7, 6, 5, 4, 3, 2, 1, inf}
	if got := percentile(append([]float64(nil), failed...), 0.9, 1000); got != 1000 {
		t.Errorf("p90 with two failures in ten = %v, want the limit 1000", got)
	}
	if got := percentile(append([]float64(nil), failed...), 0.5, 1000); got != 5 {
		t.Errorf("p50 with two failures in ten = %v, want 5", got)
	}
	if got := percentile(append([]float64(nil), failed[1:9]...), 0.5, 1000); got != 4 {
		t.Errorf("p50 of the eight successes = %v, want 4", got)
	}
	if got := percentile(nil, 0.5, 1000); got != 1000 {
		t.Errorf("p50 of nothing = %v, want the limit", got)
	}
}

// TestTypical replaces each unit's time by the median of its name's times,
// so one slow pass of a program does not reach the percentiles, and keeps
// a unit that failed in most of its passes infinitely slow.
func TestTypical(t *testing.T) {
	inf := math.Inf(1)
	names := []string{"a", "b", "a", "c", "a", "b", "c", "c"}
	lat := []float64{10, 3, 11, inf, 90, 5, inf, 7}
	got := typical(names, lat)
	want := []float64{11, 3, 11, inf, 11, 3, inf, inf}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("typical = %v, want %v", got, want)
		}
	}
	if lat[4] != 90 {
		t.Errorf("typical changed its input: %v", lat)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 2, 3, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3.5, 1, 2}, [3]float64{1, 2, 3.5}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricNamesMatchSpec pins the printed metric names, units and
// directions to BENCHMARK.json, in both directions, and the workloads.
func TestMetricNamesMatchSpec(t *testing.T) {
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, printed []metricDef, declared []specMetric) {
		want := map[string]specMetric{}
		for _, m := range declared {
			want[m.Name] = m
		}
		for _, m := range printed {
			if !metricName.MatchString(m.name) {
				t.Errorf("%s metric %q: name does not match %s", kind, m.name, metricName)
			}
			d, ok := want[m.name]
			if !ok {
				t.Errorf("%s metric %q is printed but not declared", kind, m.name)
				continue
			}
			if d.Unit != m.unit || d.Better != m.better {
				t.Errorf("%s metric %q: printed as %s/%s, declared %s/%s", kind, m.name, m.unit, m.better, d.Unit, d.Better)
			}
			delete(want, m.name)
		}
		for name := range want {
			t.Errorf("%s metric %q is declared but not printed", kind, name)
		}
	}
	check("end_to_end", endToEnd, s.EndToEnd)
	check("per_layer", perLayer, s.PerLayer)

	var declared []string
	for _, w := range s.Workloads {
		declared = append(declared, w.Name)
	}
	got := append([]string(nil), workloads...)
	sort.Strings(declared)
	sort.Strings(got)
	if len(got) != len(declared) {
		t.Fatalf("workloads %v, declared %v", got, declared)
	}
	for i := range got {
		if got[i] != declared[i] {
			t.Fatalf("workloads %v, declared %v", got, declared)
		}
	}
}

// TestPrintedMetricsAreDeclared checks that fill prints exactly the
// declared names, whatever extra values a workload computes.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	vals := map[string]float64{"setup_s": 1, "serve.http": 2, "eval.masks": 3}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		m := fill(defs, vals)
		if len(m) != len(defs) {
			t.Errorf("printed %d metrics, declared %d", len(m), len(defs))
		}
		for _, d := range defs {
			if v, ok := m[d.name]; !ok || v.Unit != d.unit {
				t.Errorf("metric %s printed as %+v", d.name, v)
			}
		}
	}
}
