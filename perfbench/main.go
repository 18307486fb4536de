// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload and prints, as the last line of standard output,
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with -trace 1 they are the per-layer metrics from a
// separate traced run. Every recommendation and response is checked
// (see check.go); a failing check counts as a failed operation and
// clears "correct". The lines above the JSON are a human report: every
// metric by name, unit and sample count.
//
// Workloads (see README.md for why each exists):
//
//	tune-het         cold offline sessions on W_het, 250 statements
//	tune-hom         cold offline sessions on W_hom, 1000 statements
//	serve-recommend  cophyd under a 1-client ingest/recommend/whatif mix
//	serve-ingest     cophyd under a 2-client write-heavy mix
//
// Run it from the repository root through run.sh, which builds this
// program and cophyd first:
//
//	bash perfbench/run.sh --workload tune-hom --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's metrics, the human report lines, and the
// operation and failure counts.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// set records a metric for the JSON result.
func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note prints one human report line: a metric's name, value, unit and
// sample count.
func (r *report) note(name string, v float64, unit string, n int) {
	fmt.Printf("  %-36s %14.4f %-6s n=%d\n", name, v, unit, n)
}

// fail records a failed check; the first few are printed.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// benchProcs is the GOMAXPROCS of the benchmark and of cophyd: the
// 2 vCPUs the benchmark was sized on.
const benchProcs = 2

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	procs    int
	root     string // checkout root: where .bench_build lives
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: tune-het, tune-hom, serve-recommend, serve-ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 20, "target measured time; sizes the fixed operation count")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.root, "root", ".", "checkout root (cophyd binary and scratch space live in <root>/.bench_build)")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "error: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}

	// One CPU count for everything, fixed so that figures from machines
	// with other CPU counts stay comparable: this process and the cophyd
	// child get the same GOMAXPROCS, and the load generator never runs
	// more client goroutines than that.
	cfg.procs = benchProcs
	runtime.GOMAXPROCS(cfg.procs)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, cfg.procs)

	rep := newReport()
	steal0 := hostSteal()
	var err error
	switch cfg.workload {
	case "tune-het", "tune-hom":
		err = runTune(cfg, rep)
	case "serve-recommend", "serve-ingest":
		err = runServe(cfg, rep)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	// On a shared VM, CPU time the hypervisor gave to other guests
	// slows every timing of the run; report it beside them.
	steal := hostSteal().since(steal0)
	rep.note("host.steal_pct", steal, "%", 1)
	if cfg.trace {
		rep.set("host.steal_pct", "%", steal)
	}
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if rep.attempted < 1 {
		fmt.Fprintln(os.Stderr, "error: no operation attempted")
		os.Exit(1)
	}
	out, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
