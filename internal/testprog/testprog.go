// Package testprog lists the programs the differential tests run a pass or
// an analysis and its reference implementation over: the bundled
// benchmarks, generated programs, and the seed corpora of the FuzzCompile
// and FuzzPipeline fuzzers, each at the unroll factors the pipeline and the
// fuzzers use. Only tests import it.
package testprog

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/ir"
	"mcpart/internal/mclang"
	"mcpart/internal/progen"
)

// Input is one program: a source with the unroll factor it is compiled at.
type Input struct {
	Name, Src string
	Unroll    int
	Fuzz      bool // a FuzzCompile seed, which the front end may reject
}

// Compile runs the front end on the input.
func (in Input) Compile() (*ir.Module, error) {
	return mclang.CompileUnrolled(in.Src, in.Name, in.Unroll)
}

// Inputs returns the bundled programs at unroll 4 and 1, generated
// programs (the FuzzPipeline seeds and seeds 0..299, 0..39 under -short)
// at unroll 4 and 1, and the FuzzCompile seeds.
func Inputs(tb testing.TB) []Input {
	tb.Helper()
	var inputs []Input
	for _, b := range bench.All() {
		inputs = append(inputs, Input{b.Name, b.Source, 4, false}, Input{b.Name, b.Source, 1, false})
	}
	seeds := 300
	if testing.Short() {
		seeds = 40
	}
	pipeline := []int64{1, 7, 42, 1337, 99991}
	for _, vals := range fuzzSeeds(tb, "eval", "FuzzPipeline") {
		seed, err := strconv.ParseInt(vals[0], 10, 64)
		if err != nil {
			tb.Fatal(err)
		}
		pipeline = append(pipeline, seed)
	}
	for i := int64(0); i < int64(seeds); i++ {
		pipeline = append(pipeline, i)
	}
	for _, seed := range pipeline {
		src := progen.Generate(seed, progen.Options{})
		name := "seed" + strconv.FormatInt(seed, 10)
		inputs = append(inputs, Input{name, src, 4, false}, Input{name, src, 1, false})
	}
	inputs = append(inputs,
		Input{"compile0", "func main() int { return 0; }", 1, true},
		Input{"compile1", "int g[8]; func main() int { int i; i = 0; while (i < 8) { g[i & 7] = i; i = i + 1; } return g[3]; }", 4, true},
		Input{"compile2", "func sum(a int, b int) int { return a + b; } func main() int { return sum(1, 2); }", 2, true},
		Input{"compile3", "func main() int { int *p; p = malloc(32); p[1] = 9; return p[1]; }", 3, true},
	)
	for i, vals := range fuzzSeeds(tb, "mclang", "FuzzCompile") {
		unroll, err := strconv.Atoi(vals[1])
		if err != nil {
			tb.Fatal(err)
		}
		inputs = append(inputs, Input{"corpus" + strconv.Itoa(i), vals[0], unroll, true})
	}
	return inputs
}

// Funcs compiles every input the front end accepts and returns the
// functions of each module, then of the same module after optimize. The
// optimizer is a parameter so that its own tests can import this package.
func Funcs(tb testing.TB, optimize func(*ir.Module)) []*ir.Func {
	tb.Helper()
	var funcs []*ir.Func
	for _, in := range Inputs(tb) {
		for _, optimized := range []bool{false, true} {
			m, err := in.Compile()
			if err != nil && in.Fuzz {
				break
			}
			if err != nil {
				tb.Fatalf("%s: %v", in.Name, err)
			}
			if optimized {
				optimize(m)
			}
			funcs = append(funcs, m.Funcs...)
		}
	}
	return funcs
}

// fuzzSeeds reads the string/int corpus entries of one fuzz target's
// testdata directory in package pkg ("go test fuzz v1" files), one slice
// of values per file.
func fuzzSeeds(tb testing.TB, pkg, target string) [][]string {
	tb.Helper()
	_, here, _, _ := runtime.Caller(0)
	dir := filepath.Join(filepath.Dir(here), "..", pkg, "testdata", "fuzz", target)
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no fuzz corpus under %s: %v", dir, err)
	}
	var out [][]string
	for _, name := range files {
		fh, err := os.Open(name)
		if err != nil {
			tb.Fatal(err)
		}
		var vals []string
		sc := bufio.NewScanner(fh)
		for sc.Scan() {
			line := sc.Text()
			open, close := strings.IndexByte(line, '('), strings.LastIndexByte(line, ')')
			if open < 0 || close < open {
				continue // the version header
			}
			v := line[open+1 : close]
			if strings.HasPrefix(line, "string(") {
				if v, err = strconv.Unquote(v); err != nil {
					tb.Fatalf("%s: %v", name, err)
				}
			}
			vals = append(vals, v)
		}
		fh.Close()
		out = append(out, vals)
	}
	return out
}
