package partition

import "testing"

// TestFracMalformed pins frac's fallback contract: any malformed
// Fractions slice — wrong length, non-positive sum, or a negative entry —
// silently degrades to equal shares rather than producing NaN limits or
// panicking deep inside a refinement pass.
func TestFracMalformed(t *testing.T) {
	cases := []struct {
		name string
		fr   []float64
	}{
		{"nil", nil},
		{"empty", []float64{}},
		{"short", []float64{1}},
		{"long", []float64{0.3, 0.3, 0.4}},
		{"zero-sum", []float64{0, 0}},
		{"negative-sum", []float64{-0.5, -0.5}},
		{"negative-entry", []float64{-0.2, 1.2}},
	}
	for _, c := range cases {
		o := Options{Fractions: c.fr}
		if o.frac(0) != 0.5 || o.frac(1) != 0.5 {
			t.Errorf("%s: frac = (%v, %v), want equal shares", c.name, o.frac(0), o.frac(1))
		}
	}
	// Well-formed but unnormalized fractions normalize by their sum.
	o := Options{Fractions: []float64{1, 3}}
	if o.frac(0) != 0.25 || o.frac(1) != 0.75 {
		t.Errorf("unnormalized: frac = (%v, %v), want (0.25, 0.75)", o.frac(0), o.frac(1))
	}
}

// TestTolEdgeCases pins tol's clamping and extension rules: the default
// without entries, last-entry reuse past the end, and negative clamping
// to exact balance.
func TestTolEdgeCases(t *testing.T) {
	var zero Options
	if zero.tol(0) != 0.10 || zero.tol(5) != 0.10 {
		t.Error("empty Tol must default to 0.10 in every dimension")
	}
	o := Options{Tol: []float64{0.05, 0.2}}
	if o.tol(0) != 0.05 || o.tol(1) != 0.2 {
		t.Error("explicit entries must be returned as given")
	}
	if o.tol(2) != 0.2 || o.tol(100) != 0.2 {
		t.Error("dimensions past the end must reuse the last entry")
	}
	neg := Options{Tol: []float64{-0.3}}
	if neg.tol(0) != 0 || neg.tol(3) != 0 {
		t.Error("negative tolerances must clamp to 0")
	}
}

// TestBisectMalformedOptions runs a real bisection under each malformed
// option set: the fallbacks must hold end to end (no panic, fixed nodes
// respected, a two-sided partition returned).
func TestBisectMalformedOptions(t *testing.T) {
	g := randGraph(80, 4, 2, 7, true)
	for _, opts := range []Options{
		{Fractions: []float64{0, 0}},
		{Fractions: []float64{-1, 2}, Tol: []float64{-0.5}},
		{Tol: []float64{}},
		{Fractions: []float64{1}, Tol: []float64{-1, 0.15}},
	} {
		part, err := Bisect(g, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for u, f := range g.Fixed {
			if f != -1 && part[u] != f {
				t.Fatalf("%+v: fixed node %d moved", opts, u)
			}
		}
	}
}
