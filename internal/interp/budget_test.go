package interp

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mcpart/internal/mclang"
	"mcpart/internal/profile"
)

func TestDeadlineBudget(t *testing.T) {
	mod, err := mclang.Compile(`func main() int { while (1) { } return 0; }`, "t")
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(mod, Options{Deadline: time.Now().Add(-time.Second)}).RunMain()
	var be *profile.BudgetError
	if !errors.As(err, &be) || be.Resource != "deadline" {
		t.Fatalf("error = %v, want deadline BudgetError", err)
	}
	if !strings.Contains(err.Error(), "deadline exceeded in main") {
		t.Fatalf("message = %q", err)
	}
}

func TestDeadlineFarFutureHarmless(t *testing.T) {
	mod, err := mclang.Compile(`func main() int { int s; int i; s = 0; i = 0; while (i < 100) { s = s + i; i = i + 1; } return s; }`, "t")
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(mod, Options{Deadline: time.Now().Add(time.Hour)}).RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 4950 {
		t.Fatalf("checksum = %d, want 4950", v.I)
	}
}

func TestByteBudget(t *testing.T) {
	src := `func main() int {
		int i;
		i = 0;
		while (i < 1000) {
			int *p;
			p = malloc(1024);
			*p = i;
			i = i + 1;
		}
		return i;
	}`
	mod, err := mclang.Compile(src, "t")
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(mod, Options{MaxBytes: 64 * 1024}).RunMain()
	var be *profile.BudgetError
	if !errors.As(err, &be) || be.Resource != "byte" {
		t.Fatalf("error = %v, want byte BudgetError", err)
	}
	if !strings.Contains(err.Error(), "byte budget of 65536 exceeded") {
		t.Fatalf("message = %q", err)
	}
	// The same program under a roomy budget runs to completion.
	if v, err := New(mod, Options{MaxBytes: 16 << 20}).RunMain(); err != nil || v.I != 1000 {
		t.Fatalf("roomy budget: v=%v err=%v", v, err)
	}
}

// TestStepBudgetTyped pins the step-budget error to the BudgetError type
// while keeping the historical message shape.
func TestStepBudgetTyped(t *testing.T) {
	mod, err := mclang.Compile(`func main() int { while (1) { } return 0; }`, "t")
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(mod, Options{MaxSteps: 1000}).RunMain()
	var be *profile.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error = %v, want *BudgetError", err)
	}
	if be.Resource != "step" || be.Limit != 1000 || be.Fn != "main" {
		t.Fatalf("BudgetError = %+v", be)
	}
	if got := err.Error(); got != "interp: step budget of 1000 exceeded in main" {
		t.Fatalf("message = %q", got)
	}
}
