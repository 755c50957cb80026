// Command perfbench is the end-to-end and per-layer benchmark of the
// Surveyor miner. One run drives one workload for a fixed time over a
// corpus generated from its seed, checks every output it times, and prints
// one JSON object as the last line of standard output:
//
//	perfbench -workload batch -seed 1 -seconds 15 -trace 0
//
// With -trace 0 the object holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics, and the run also writes a Chrome trace of
// its spans under .bench_build/traces. run.sh builds the binary from source
// and runs it; see README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/surveyor"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"docs_per_s", "docs/s"},
	{"epoch_p50_ms", "ms"},
	{"cpu_ms_per_kdoc", "ms"},
	{"alloc_kb_per_doc", "kB"},
	{"peak_heap_mb", "MB"},
	{"query_p50_us", "us"},
}

var perLayer = []metricDef{
	{"corpus.decode_ms", "ms"}, {"corpus.decode_mb_per_s", "MB/s"}, {"corpus.docs", "count"},
	{"kb.build_ms", "ms"}, {"kb.register_ms", "ms"},
	{"token.ms", "ms"}, {"token.tokens", "count"}, {"token.alloc_b_per_sentence", "B"},
	{"pos.ms", "ms"}, {"pos.alloc_b_per_sentence", "B"},
	{"tagger.ms", "ms"}, {"tagger.mentions", "count"}, {"tagger.alloc_b_per_sentence", "B"},
	{"depparse.ms", "ms"}, {"depparse.sentences", "count"}, {"depparse.alloc_b_per_sentence", "B"},
	{"extract.ms", "ms"}, {"extract.statements", "count"}, {"extract.alloc_b_per_sentence", "B"},
	{"pipeline.extract_1w_ms", "ms"}, {"pipeline.extract_nw_ms", "ms"}, {"pipeline.residual_ms", "ms"}, {"pipeline.scaling", "x"},
	{"evidence.add_ms", "ms"}, {"evidence.merge_ms", "ms"}, {"evidence.group_ms", "ms"},
	{"evidence.pairs", "count"}, {"evidence.groups_before_rho", "count"}, {"evidence.groups_kept", "count"},
	{"core.em_ms", "ms"}, {"core.em_iterations", "count"}, {"core.tuples", "count"},
	{"incremental.dirty_groups", "count"}, {"incremental.refit_groups", "count"},
	{"incremental.refit_tuples", "count"}, {"incremental.fixed_ms", "ms"},
	{"wire.encode_ms", "ms"}, {"wire.decode_ms", "ms"}, {"wire.bytes_per_doc", "B"},
	{"dist.empty_run_ms", "ms"}, {"dist.child_cpu_ms", "ms"}, {"dist.shard_failures", "count"},
	{"query.parse_us", "us"}, {"query.execute_us", "us"}, {"query.engine_us", "us"},
	{"query.p99_us", "us"}, {"query.answers", "count"},
	{"obs.overhead_pct", "%"},
	{"gc.cycles_per_kdoc", "count"}, {"gc.pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

var workloads = []string{"batch", "stream-obs", "trickle-query", "distribute"}

// corpusScale is the corpus generator's scale for every run: 62,513
// documents at seed 9.
const corpusScale = 20

// setupRuns is how many cold set-ups one run times for setup_s.
const setupRuns = 21

// options is one run's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// scale is corpusScale in a run; the tests shrink it.
	scale float64
	// workDir holds the corpus file; traceDir receives the Chrome trace.
	workDir, traceDir string
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run sets the system up, times cold set-ups, builds the inputs, drives
// the workload, and reduces what it measured to the reported metrics.
func run(o options) (*result, error) {
	sys := setUp()

	if !slices.Contains(workloads, o.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	}
	var setup float64
	if !o.trace {
		var err error
		if setup, err = coldSetups(); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "set-up: median %.3f ms over %d cold starts\n", setup*1e3, setupRuns)
	}
	in, err := buildInputs(o.seed, o.scale, o.workDir)
	if err != nil {
		return nil, err
	}
	r := &runner{
		workload: o.workload,
		in:       in,
		sys:      sys,
		chk:      newChecker(in),
		seconds:  o.seconds,
		nproc:    nproc(),
	}
	r.cfg = surveyor.Config{Workers: r.nproc, Rho: r.in.rho}
	if o.trace {
		r.tr = newTracer()
	}
	if o.workload == "distribute" {
		if r.distOpts, err = r.distOptions(); err != nil {
			return nil, err
		}
	}
	r.reference()
	r.m = startMeter()
	switch o.workload {
	case "batch":
		r.batch()
	case "stream-obs":
		r.streamObs()
	case "trickle-query":
		r.trickleQuery()
	case "distribute":
		r.distribute()
	}
	r.m.close()

	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if o.trace {
		lm := r.layerMetrics()
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{lm[m.name], m.unit}
		}
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := r.tr.writeChromeFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
		r.tr.printSelfTimes(os.Stderr)
		for _, m := range perLayer {
			fmt.Fprintf(os.Stderr, "%-32s %14.4f %s\n", m.name, lm[m.name], m.unit)
		}
	} else {
		e2e := endToEnd(r.plain, r.plainQueryUS)
		e2e["setup_s"] = setup
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metricValue{finite(e2e[m.name]), m.unit}
		}
	}
	var walls []float64
	for _, u := range r.plain {
		walls = append(walls, ms(u.wall))
	}
	fmt.Fprintf(os.Stderr, "untraced unit wall ms: p10 %.2f p50 %.2f p90 %.2f over %d units\n",
		quantile(walls, 0.1), median(walls), quantile(walls, 0.9), len(walls))
	res.Correct = len(r.errs) == 0
	for _, err := range r.errs {
		fmt.Fprintln(os.Stderr, "check failed:", err)
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d units (%d traced), attempted %d, failed %d (%d known-fault queries)\n",
		o.workload, o.seed, len(r.plain)+len(r.traced), len(r.traced), r.attempted, r.failed, r.knownFaults)
	return res, nil
}

// setUp builds a ready System: the built-in knowledge base plus the
// lexicon registration the first mine does.
func setUp() *surveyor.System {
	sys := surveyor.NewSystemWithBuiltinKB(kbSeed)
	sys.MineIncremental(surveyor.Config{}) // registers the KB names in the lexicon
	return sys
}

// setupChild is the -setup mode: one cold set-up, its time from the
// process's start printed in seconds on standard output.
func setupChild() {
	start := processStart()
	setUp()
	fmt.Println(strconv.FormatFloat(time.Since(start).Seconds(), 'g', -1, 64))
}

// coldSetups re-executes this binary setupRuns times, one at a time, into
// its -setup mode and returns the median of the set-up times the children
// report, in seconds. Each child is a fresh process, so every set-up is
// cold: the exec, the Go runtime's start and package initialisation count,
// as they do for every CLI run and every distributed worker.
func coldSetups() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, "-setup")
		cmd.Env = append(os.Environ(), "PERFBENCH_T0_US="+strconv.FormatInt(time.Now().UnixMicro(), 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil || x <= 0 {
			return 0, fmt.Errorf("set-up child printed %q", out)
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// serveWorker is the distribute workload's child: the same built-in
// system, serving one shard on stdin/stdout with one extraction thread.
func serveWorker() error {
	return surveyor.NewSystemWithBuiltinKB(kbSeed).ServeWorker(context.Background(), os.Stdin, os.Stdout,
		surveyor.Config{Workers: 1})
}

// processStart is when the process started: coldSetups exports the time
// just before it execs a set-up child; without it, main's first
// instruction.
func processStart() time.Time {
	if us, err := strconv.ParseInt(os.Getenv("PERFBENCH_T0_US"), 10, 64); err == nil && us > 0 {
		return time.UnixMicro(us)
	}
	return time.Now()
}

func main() {
	o := options{scale: corpusScale}
	var seconds, trace int
	var worker, setup bool
	flag.StringVar(&o.workload, "workload", "", "workload: batch, stream-obs, trickle-query or distribute")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the corpus and the query order")
	flag.IntVar(&seconds, "seconds", 15, "how long the timed rounds run")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.BoolVar(&worker, "worker", false, "serve one distributed shard on stdin/stdout (launched by the distribute workload)")
	flag.BoolVar(&setup, "setup", false, "time one cold set-up and print it in seconds (launched by every untraced run)")
	flag.Parse()

	if setup {
		setupChild()
		return
	}
	if worker {
		if err := serveWorker(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "want -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	o.workDir = filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	o.traceDir = filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := run(o)
	if rmErr := os.RemoveAll(o.workDir); rmErr != nil {
		err = errors.Join(err, rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
