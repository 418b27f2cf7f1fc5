package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median, and the last setup serves the timed window.
const setupRepeats = 3

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string // directory for node state; removed at exit
	traceOut string // directory the traced run writes its spans to
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same requests")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the timed window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer variant instead of the end-to-end one")
	fs.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench-work"), "directory for node state (removed at exit)")
	fs.StringVar(&o.traceOut, "trace-out", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	names := workloadNames()
	if o.workload != "all" {
		if _, ok := workloads[o.workload]; !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", o.workload, strings.Join(names, ", "))
			return 2
		}
		names = []string{o.workload}
	}

	// A signal cancels the load; the deferred teardown still runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	work, err := os.MkdirTemp(ensureDir(o.work), "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	agg := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		res, err := runWorkload(ctx, name, o, work, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		agg.Correct = agg.Correct && res.Correct
		agg.Attempted += res.Attempted
		agg.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			agg.Metrics[k] = v
		}
	}
	line, err := json.Marshal(agg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !agg.Correct {
		return 1
	}
	return 0
}

func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

// result is the command's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one workload's output: metrics for the result line,
// and the human-readable lines printed before it.
type report struct {
	w       io.Writer
	name    string
	metrics map[string]metric
	att     int
	failed  int
}

func (r *report) printf(format string, args ...any) {
	fmt.Fprintf(r.w, "perfbench: %s: "+format+"\n", append([]any{r.name}, args...)...)
}

// set records a metric for the result line and prints it by name.
func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.printf("%-34s %14.6g %-6s (attempted %d, failed %d)", name, value, unit, r.att, r.failed)
}

// note prints a measured figure that is not a gated metric.
func (r *report) note(name string, value float64, unit string) {
	r.printf("%-34s %14.6g %-6s (not gated)", name, value, unit)
}

func runWorkload(ctx context.Context, name string, o options, work string, stdout io.Writer) (result, error) {
	dir, err := os.MkdirTemp(work, name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	rep := &report{w: stdout, name: name, metrics: map[string]metric{}}
	rep.printf("env seed=%d nproc=%d gomaxprocs=%d go=%s fs=%s trace=%t seconds=%d",
		o.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(dir), o.trace, o.seconds)
	def := workloads[name]
	rep.printf("loop=%s %s tail=p%g tail_limit_ms=%g", def.loop, def.load, def.tailP, ms(def.tailLimit))
	dur := time.Duration(o.seconds) * time.Second
	b := &bench{ctx: ctx, seed: o.seed, dir: dir, rep: rep}
	if o.trace {
		return runTraced(b, def, dur, o.traceOut)
	}
	return runEndToEnd(b, def, dur)
}

// bench is what one workload run shares across its phases.
type bench struct {
	ctx  context.Context
	seed int64
	dir  string
	rep  *report
	n    int // setups so far, naming each one's directory
}

// rng returns a generator for one named use of the workload seed, so
// that each use draws the same stream however the others are consumed.
func (b *bench) rng(label string) *rand.Rand {
	h := uint64(b.seed)*0x9e3779b97f4a7c15 + 1
	for _, c := range label {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// nextDir is a fresh directory for one setup's node state.
func (b *bench) nextDir() string {
	b.n++
	return filepath.Join(b.dir, fmt.Sprintf("setup%d", b.n))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
