package mcpart

import (
	"reflect"
	"testing"

	"mcpart/internal/check"
	"mcpart/internal/eval"
	"mcpart/internal/gdp"
	"mcpart/internal/partition"
	"mcpart/internal/rhop"
	"mcpart/internal/store"
)

// TestOptionSurface pins the exported field names of the pipeline's Options
// structs, in declaration order, so adding, dropping or renaming a knob
// shows up as a reviewed diff of this list (the Options counterpart of each
// tool's TestFlagSurface).
func TestOptionSurface(t *testing.T) {
	for _, tc := range []struct {
		opts any
		want []string
	}{
		{partition.Options{}, []string{"Tol", "Fractions", "Obs"}},
		{rhop.Options{}, []string{"UniformEdges", "PairRefine", "Obs"}},
		{gdp.Options{}, []string{"MemTol", "MemFractions", "BalanceOps", "NoMerge", "NoSinkWeighting", "SlackMerge", "Obs"}},
		{eval.Options{}, []string{"GDP", "RHOP", "MaxSteps", "MaxBytes", "Workers", "CacheDir", "CacheMaxBytes", "Validate", "Fallback", "Observer", "Inject"}},
		{store.Options{}, []string{"MaxBytes"}},
		{check.Options{}, []string{"MemTol"}},
	} {
		typ := reflect.TypeOf(tc.opts)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s fields = %q, want %q", typ, got, tc.want)
		}
	}
}
