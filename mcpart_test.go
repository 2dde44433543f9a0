package mcpart

import (
	"fmt"
	"strings"
	"testing"

	"mcpart/internal/gdp"
	"mcpart/internal/sched"
)

const demoSrc = `
global int table[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
global int out[64];

func kernel(int n) int {
    int i;
    int s = 0;
    for (i = 0; i < n; i = i + 1) {
        out[i % 64] = table[i % 16] * i;
        s = s + out[i % 64];
    }
    return s;
}
func main() int { return kernel(256); }`

func TestCompileAndEvaluate(t *testing.T) {
	p, err := Compile("demo", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "demo" {
		t.Errorf("name = %q", p.Name())
	}
	if p.Checksum() == 0 {
		t.Error("checksum unexpectedly zero")
	}
	m := Paper2Cluster(5)
	cmp, err := EvaluateAll(p, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{cmp.Unified, cmp.GDP, cmp.PMax, cmp.Naive} {
		if r.Cycles <= 0 {
			t.Errorf("%s cycles = %d", r.Scheme, r.Cycles)
		}
	}
	if rp := RelativePerf(cmp.Unified, cmp.GDP); rp < 0.5 || rp > 1.5 {
		t.Errorf("GDP relative perf %v implausible", rp)
	}
}

func TestCompileReportsErrors(t *testing.T) {
	if _, err := Compile("bad", "func main() int { return x; }"); err == nil {
		t.Error("accepted undefined identifier")
	}
	if !strings.Contains(errOf(Compile("bad", "garbage")), "expected") {
		t.Error("parse error not surfaced")
	}
}

func errOf(_ *Program, err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestObjects(t *testing.T) {
	p, err := Compile("demo", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	objs := p.Objects()
	if len(objs) != 2 {
		t.Fatalf("got %d objects, want 2", len(objs))
	}
	byName := map[string]ObjectInfo{}
	for _, o := range objs {
		byName[o.Name] = o
	}
	if byName["table"].Bytes != 16*8 || byName["out"].Bytes != 64*8 {
		t.Errorf("object sizes wrong: %+v", objs)
	}
	if byName["table"].Accesses == 0 || byName["out"].Accesses == 0 {
		t.Errorf("object access counts missing: %+v", objs)
	}
}

func TestEvaluateSingleScheme(t *testing.T) {
	p, err := Compile("demo", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := Paper2Cluster(5)
	for _, s := range []Scheme{SchemeUnified, SchemeGDP, SchemeProfileMax, SchemeNaive} {
		r, err := Evaluate(p, m, s, Options{})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if r.Scheme != s {
			t.Errorf("scheme mismatch: %s vs %s", r.Scheme, s)
		}
	}
	if _, err := Evaluate(p, m, "nope", Options{}); err == nil {
		t.Error("accepted unknown scheme")
	}
}

func TestEvaluateDataMap(t *testing.T) {
	p, err := Compile("demo", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := Paper2Cluster(5)
	r, err := EvaluateDataMap(p, m, DataMap{0, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 {
		t.Error("no cycles")
	}
	if _, err := EvaluateDataMap(p, m, DataMap{0}, Options{}); err == nil {
		t.Error("accepted short data map")
	}
	if _, err := EvaluateDataMap(p, m, DataMap{0, 7}, Options{}); err == nil {
		t.Error("accepted out-of-range cluster")
	}
}

func TestPartitionDataFacade(t *testing.T) {
	p, err := Compile("demo", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PartitionData(p, 2, gdp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.DataMap.Validate(p.Module(), 2); err != nil {
		t.Error(err)
	}
	if len(res.Groups) == 0 {
		t.Error("no merge groups reported")
	}
}

func TestBenchmarkRegistry(t *testing.T) {
	names := BenchmarkNames()
	if len(names) < 17 {
		t.Fatalf("only %d benchmarks", len(names))
	}
	p, err := LoadBenchmark("rawcaudio")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Objects()) < 4 {
		t.Error("rawcaudio should have several data objects")
	}
	if _, err := LoadBenchmark("nope"); err == nil {
		t.Error("accepted unknown benchmark")
	}
	src, err := BenchmarkSource("fir")
	if err != nil || !strings.Contains(src, "func main") {
		t.Errorf("BenchmarkSource: %v", err)
	}
}

func TestParseOnly(t *testing.T) {
	if err := ParseOnly(demoSrc); err != nil {
		t.Errorf("ParseOnly rejected valid program: %v", err)
	}
	if err := ParseOnly("func main() int { return 1.5; }"); err == nil {
		t.Error("ParseOnly accepted type error")
	}
}

func TestUnrollOptionPreservesSemantics(t *testing.T) {
	var sums []int64
	for _, u := range []int{1, 2, 4, 8} {
		p, err := CompileWithOptions("demo", demoSrc, CompileOptions{Unroll: u})
		if err != nil {
			t.Fatalf("unroll %d: %v", u, err)
		}
		sums = append(sums, p.Checksum())
	}
	for i := 1; i < len(sums); i++ {
		if sums[i] != sums[0] {
			t.Fatalf("unroll changed semantics: %v", sums)
		}
	}
}

func TestFormatSchedule(t *testing.T) {
	p, err := Compile("demo", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := Paper2Cluster(5)
	r, err := Evaluate(p, m, SchemeGDP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := FormatSchedule(p, m, r, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "schedule of kernel") || !strings.Contains(out, "block b") {
		t.Errorf("schedule output wrong:\n%s", out)
	}
	if _, err := FormatSchedule(p, m, r, "nope"); err == nil {
		t.Error("accepted unknown function")
	}
}

// TestFormatScheduleRendersCountedSchedule pins that the rendered schedule
// is the one the result's cycle count sums: for every function, the
// profile-weighted rendered block lengths plus one cycle per entry of each
// hoisted loop-entry copy equal the function's counted cycles, and those
// add up to the result's. viterbi's main under GDP has a block (b10) whose
// schedule under unweighted value homes is 7 cycles long, not the 11 the
// profile-weighted homes give it.
func TestFormatScheduleRendersCountedSchedule(t *testing.T) {
	p, err := LoadBenchmark("viterbi")
	if err != nil {
		t.Fatal(err)
	}
	m := Paper2Cluster(5)
	r, err := Evaluate(p, m, SchemeGDP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof := p.Profile()
	var total int64
	for _, f := range p.Module().Funcs {
		out, err := FormatSchedule(p, m, r, f.Name)
		if err != nil {
			t.Fatal(err)
		}
		lens := map[int]int64{}
		for _, line := range strings.Split(out, "\n") {
			var id int
			var n int64
			if _, err := fmt.Sscanf(line, "block b%d: %d cycles", &id, &n); err == nil {
				lens[id] = n
			}
		}
		if f.Name == "main" && lens[10] != 11 {
			t.Errorf("main b10 rendered at %d cycles, want the counted 11", lens[10])
		}
		lc := sched.NewLoopCtx(f)
		var rendered int64
		for _, b := range f.Blocks {
			l, ok := lens[b.ID]
			if !ok {
				t.Fatalf("%s: block b%d not rendered", f.Name, b.ID)
			}
			rendered += prof.Freq(b) * l
		}
		_, hoisted := sched.MaterializeFunc(f, r.Assign[f], lc, m, prof.Freq)
		for _, h := range hoisted {
			rendered += lc.EntryFreq(h.Loop, prof.Freq)
		}
		counted, _ := sched.NewScratch().FuncCycles(sched.NewBlockCache(f, lc, m), r.Assign[f], prof)
		if rendered != counted {
			t.Errorf("%s: rendered schedules sum to %d cycles, counted %d", f.Name, rendered, counted)
		}
		total += counted
	}
	if total != r.Cycles {
		t.Errorf("functions count %d cycles, result reports %d", total, r.Cycles)
	}
}
