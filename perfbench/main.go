// Command perfbench is the repository's benchmark: one program that runs
// a named workload for a fixed time, checks every output the simulator
// or the service returns, and prints its metrics as one JSON object on
// the last line of standard output.
//
// Usage, from the repository root (run.sh builds this program and the
// cmd/serve binary first):
//
//	bash perfbench/run.sh --workload kernel-b37 --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run that records spans around every layer call, writes them
// under <out>/traces, and prints the per-layer metrics. README.md lists
// the workloads, the metrics and the layer each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*env, *report) error{
	"kernel-b37": runKernel,
	"shift-b216": runShift,
	"serve-http": runServeHTTP,
}

// env is one benchmark invocation's settings.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serveBin string // prebuilt cmd/serve binary (serve-http)
	outDir   string // where traces are written
}

func main() {
	var e env
	var traceFlag int
	flag.StringVar(&e.workload, "workload", "", "workload: kernel-b37, shift-b216 or serve-http")
	flag.Int64Var(&e.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&e.seconds, "seconds", 10, "how long the timed phase runs")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&e.serveBin, "serve-bin", ".bench_build/bin/serve", "cmd/serve binary (serve-http)")
	flag.StringVar(&e.outDir, "out", ".bench_build", "directory for trace files")
	flag.Parse()
	e.trace = traceFlag == 1

	run, ok := workloads[e.workload]
	if !ok || e.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	rep := newReport(&e)
	if err := run(&e, rep); err != nil {
		// An error is a run that could not be measured at all (no
		// network, no server): no result line, a failing exit code.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", e.workload, err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// report collects one run's results.
type report struct {
	env       *env
	attempted int
	failed    int
	failures  []string           // the first few check failures, for the detail line
	e2e       map[string]float64 // endToEnd metrics (untraced run)
	layer     map[string]float64 // perLayer metrics (traced run)
	exact     map[string]int64   // host-independent counts, identical for a seed
	samples   map[string]int     // sample counts behind the percentiles
	phase     map[string]float64 // the timed phase: wall and CPU seconds
	tracer    *tracer            // merged spans of a traced run
}

func newReport(e *env) *report {
	return &report{
		env:     e,
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		exact:   map[string]int64{},
		samples: map[string]int{},
		phase:   map[string]float64{},
	}
}

// fail records a failed check: the operation it belongs to counts as
// failed and the run as incorrect.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// latency records the typical operation latency p50 and the tail of
// the per-operation wall-clock latencies lat, in ms, with the sample
// count and the tail's quantile. The tail is a per-layer metric: a tail
// of a few hundred operations follows the host's stalls, too much to
// gate on.
func (r *report) latency(p50 float64, lat []float64) {
	q := tailQuantile(len(lat))
	r.e2e["req_p50_ms"] = p50
	r.layer["bench.req_tail_ms"] = quantile(lat, q)
	r.samples["latency"] = len(lat)
	r.samples["tail_permille"] = int(math.Round(q * 1000))
}

// timedPhase records the timed phase's wall time and this process's
// CPU time over it; their gap is time the host did not run the process.
func (r *report) timedPhase(wall, cpu time.Duration) {
	r.phase["wall_s"] = wall.Seconds()
	r.phase["cpu_s"] = cpu.Seconds()
}

// check records err, if any, as a failed check.
func (r *report) check(err error) {
	if err != nil {
		r.fail("%v", err)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is the line printed before the result: what a reader needs to
// reproduce or diff the run.
type detail struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Traced      bool               `json:"traced"`
	Host        fingerprint        `json:"host"`
	ExactCounts map[string]int64   `json:"exact_counts"`
	Samples     map[string]int     `json:"samples"`
	TimedPhase  map[string]float64 `json:"timed_phase"`
	Failures    []string           `json:"failures,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
	SelfTimeNS  map[string]int64   `json:"self_time_ns,omitempty"`
}

type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary at build time;
// a checkout without git history has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	switch {
	case rev == "":
		return "unknown"
	case dirty:
		return rev + "-dirty"
	}
	return rev
}

// print writes the detail line, the trace file of a traced run, and the
// result line last.
func (r *report) print(w *os.File) error {
	d := detail{
		Workload:    r.env.workload,
		Seed:        r.env.seed,
		Seconds:     r.env.seconds,
		Traced:      r.env.trace,
		Host:        hostFingerprint(),
		ExactCounts: r.exact,
		Samples:     r.samples,
		TimedPhase:  r.phase,
		Failures:    r.failures,
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	defs, vals := endToEnd, r.e2e
	if r.env.trace {
		defs, vals = perLayer, r.layer
		self := r.tracer.selfTime()
		d.SelfTimeNS = self
		var total int64
		for _, ns := range self {
			total += ns
		}
		for _, l := range layers {
			if total > 0 {
				vals["selftime."+l+".share"] = float64(self[l]) / float64(total)
			}
		}
		path, err := r.tracer.write(r.env.outDir, r.env.workload, r.env.seed)
		if err != nil {
			return err
		}
		d.TraceFile = path
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed++
		res.Correct = false
	}
	dl, err := json.Marshal(map[string]detail{"detail": d})
	if err != nil {
		return err
	}
	rl, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", dl, rl)
	return err
}
