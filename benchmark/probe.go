package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/parser"
	"go/printer"
	"go/token"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The speed probe. On a shared runner, other tenants' load moves the time
// of identical work by 15-50% over periods of minutes, through contention
// for the CPUs and for caches and memory. The probe is a fixed job,
// independent of mcpart, that the same contention slows; a run scales the
// times it measures by the probe's reference reading over the median of
// the readings taken in the same phase (set-up, or the measured work; the
// batch workloads scale their set-up by all of the run's readings), so it
// reports the times the work would have taken with the probe at its
// reference speed. One reading varies by 15-40% from the next, so a phase
// takes ten or more and is scaled by their median rather than by the few
// taken around each measurement. Each record keeps the run's median
// reading.
//
// There are two jobs, one for each kind of time the workloads measure:
//
//   - probeParse, for the batch workloads' CPU times (see runBatch): it
//     parses a generated Go source of 150 functions with go/parser and
//     prints it back with go/printer, compiler front-end work (small
//     allocations, pointer-linked trees, maps) like mcpart's own, after
//     streaming through a buffer larger than the core's caches. A reading
//     is the job's CPU time on its thread, which follows the part of the
//     contention CPU time keeps (slower caches and memory), not the time
//     other work held the CPU.
//   - probeMap, for gdpd-mixed's wall-clock times: random lookups in a map
//     of about a megabyte, timed by the wall clock on the second of two
//     passes, each after streaming through a larger buffer. Readings are
//     taken at least probeEvery apart: in that time other tenants push the
//     map out of the shared cache too, whether or not the benchmark ran
//     anything, and a reading then follows their load (back to back,
//     readings are three times faster and do not follow it).
//
// The job runs in a child process (this program with probeEnv set to the
// job's name), and only while the benchmark waits for it, so the code
// under test cannot slow it: a reading during which the benchmark's
// process used the CPU (its garbage collector finishing a cycle, say) is
// taken again.
const (
	probeParse = "parse"
	probeMap   = "map"
	// probeFuncs is the number of functions in probeParse's source.
	probeFuncs   = 150
	probeKeys    = 50_000
	probeLookups = 20_000
	probeEvict   = 4 << 20 / 8 // int64s in the eviction buffer (4 MiB)
	// probeEvery spaces the readings: often enough to follow the runner's
	// drift, rarely enough to cost about two percent of the run.
	probeEvery = 250 * time.Millisecond
	// probeEnv names the job that makes this program the probe's child
	// process.
	probeEnv = "MCBENCH_PROBE"
	// probeBusy is the CPU time the benchmark's process may use during a
	// reading (waking up to send and receive it) before the reading is
	// taken again, up to probeTries times.
	probeBusy  = 300 * time.Microsecond
	probeTries = 20
	// setupReadings is the number of readings taken after each set-up.
	setupReadings = 2
)

// probeRefMS is each job's typical reading on the reference runner (see
// README.md); only ratios between runs matter, it just keeps the scaled
// times close to the measured ones.
var probeRefMS = map[string]float64{probeParse: 5.0, probeMap: 1.0}

// probe is the benchmark's side of the child process.
type probe struct {
	job  string
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	ms   []float64 // every reading
	last time.Time
	err  error // the first failure to get a reading
}

// startProbe starts the child process running job. close stops it.
func startProbe(job string) (*probe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), probeEnv+"="+job)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	return &probe{job: job, cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// close ends the child process and waits for it.
func (p *probe) close() error {
	p.in.Close()
	return p.cmd.Wait()
}

// sample takes one reading and returns how long the benchmark waited for
// it. After a failure it takes none; the run reports the failure at its end.
func (p *probe) sample() time.Duration {
	start := time.Now()
	for try := 0; p.err == nil && try < probeTries; try++ {
		cpu := cpuTime(processClock)
		reading, err := p.read()
		if err != nil {
			p.err = fmt.Errorf("speed probe: %w", err)
			break
		}
		if cpuTime(processClock)-cpu < probeBusy {
			p.ms = append(p.ms, reading)
			break
		}
		time.Sleep(2 * time.Millisecond) // let the other work finish
	}
	p.last = time.Now()
	return p.last.Sub(start)
}

// read asks the child for one reading.
func (p *probe) read() (float64, error) {
	if _, err := p.in.Write([]byte{'\n'}); err != nil {
		return 0, err
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(line), 64)
}

// due takes a reading when probeEvery has passed since the last one, and
// returns how long it took (0 when it took none).
func (p *probe) due() time.Duration {
	if time.Since(p.last) < probeEvery {
		return 0
	}
	return p.sample()
}

// readings takes n readings, waiting probeEvery before each, for a pause
// between set-ups.
func (p *probe) readings(n int) {
	for i := 0; i < n; i++ {
		time.Sleep(probeEvery - time.Since(p.last))
		p.sample()
	}
}

// factor is the scale for the times measured while readings from..to-1
// were taken (all of the run's readings when there are none).
func (p *probe) factor(from, to int) float64 {
	ms := p.ms[from:to]
	if len(ms) == 0 {
		ms = p.ms
	}
	if len(ms) == 0 {
		return 1 // the probe failed; the run fails with p.err
	}
	return probeRefMS[p.job] / median(ms)
}

// probeSink keeps the jobs' results alive.
var probeSink int

// serveProbe is the child process: for every line it reads, it takes one
// reading of job and writes its milliseconds as a line. It returns at the
// end of its input.
func serveProbe(job string, in io.Reader, out io.Writer) int {
	var read func() time.Duration
	evict := make([]int64, probeEvict)
	stream := func() {
		for i := range evict {
			evict[i]++
		}
	}
	switch job {
	case probeParse:
		runtime.LockOSThread() // the thread whose CPU time a reading is
		src := probeSource()
		read = func() time.Duration {
			stream()
			t0 := cpuTime(threadClock)
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "p.go", src, 0)
			if err != nil {
				panic(err) // probeSource is valid Go
			}
			var buf bytes.Buffer
			if err := printer.Fprint(&buf, fset, f); err != nil {
				panic(err)
			}
			d := cpuTime(threadClock) - t0
			probeSink += buf.Len()
			return d
		}
	case probeMap:
		m := make(map[int]int, probeKeys)
		for i := 0; i < probeKeys; i++ {
			m[i*7919] = i
		}
		read = func() time.Duration {
			var d time.Duration
			for pass := 0; pass < 2; pass++ {
				stream()
				t0 := time.Now()
				s := 0
				for i := 0; i < probeLookups; i++ {
					s += m[((i*7)%probeKeys)*7919]
				}
				d = time.Since(t0)
				probeSink += s
			}
			return d
		}
	default:
		fmt.Fprintf(os.Stderr, "speed probe: unknown job %q\n", job)
		return 2
	}
	r, w := bufio.NewReader(in), bufio.NewWriter(out)
	for {
		if _, err := r.ReadString('\n'); err != nil {
			return 0
		}
		fmt.Fprintf(w, "%g\n", ms(read()))
		if err := w.Flush(); err != nil {
			return 1
		}
	}
}

// probeSource is the Go source probeParse parses and prints.
func probeSource() string {
	var sb strings.Builder
	sb.WriteString("package p\n\n")
	for i := 0; i < probeFuncs; i++ {
		fmt.Fprintf(&sb, "func f%d(a, b int, s []int) int {\n\tx := a*%d + b\n\tif x > 10 {\n"+
			"\t\tfor j := 0; j < len(s); j++ {\n\t\t\tx += s[j]*3%%7 + f%d(x, j, s[1:])\n\t\t}\n\t}\n\treturn x\n}\n\n",
			i, i, (i+1)%probeFuncs)
	}
	return sb.String()
}
