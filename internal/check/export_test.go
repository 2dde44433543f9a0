package check

import (
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/sched"
)

// Materializer is the signature of sched.MaterializeFunc.
type Materializer = func(f *ir.Func, asg []int, lc *sched.LoopCtx, cfg *machine.Config, freq func(*ir.Block) int64) ([]*sched.BlockSchedule, []sched.HoistedMove)

// SetMaterializer substitutes the schedule materializer behind Validate
// and ValidateFunc and returns the function that restores the real one.
func SetMaterializer(m Materializer) (restore func()) {
	old := materializeFunc
	materializeFunc = m
	return func() { materializeFunc = old }
}

// Violations returns the violations accumulated so far.
func (v *Recorder) Violations() []Violation { return v.vs }

// Has reports whether any accumulated violation has the given class.
func (v *Recorder) Has(c Class) bool {
	for _, violation := range v.vs {
		if violation.Class == c {
			return true
		}
	}
	return false
}
