// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed time budget and prints, as the last line
// of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload table2-grid --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// Their times are process CPU time, scaled to a reference host speed: the
// run has one P (GOMAXPROCS 1), CPU time leaves out the time a shared host
// keeps the process waiting, and a fixed reference block timed between
// passes measures how fast the host runs (speedref.go).
// With --trace 1 the run also replays the workload's inputs through the
// public functions of each internal/ layer, timing every call from outside
// with in-memory spans, and reports the per-layer metrics instead. The spans
// are written to .bench_build/trace/ when the run ends.
//
// The command exits non-zero when an answer is wrong or an exact count
// drifts between repetitions. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opClass accounts the operations of one kind (a hit, a job, a grid row).
type opClass struct {
	name                         string
	attempted, succeeded, failed int64
}

// bench is the state one run shares across its workload code.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	workers  int    // engine workers per node: 1, the run's one P
	clients  int    // closed-loop client goroutines and connections: nproc
	scratch  string // .bench_build/ under the checkout; every file the run writes lives here

	metrics  map[string]metric
	classes  []*opClass
	problems []string // correctness failures and count drifts
	tracer   *tracer
}

func (b *bench) set(name string, value float64, unit string) {
	b.metrics[name] = metric{Value: value, Unit: unit}
}

// class returns the accounting bucket for an op kind, creating it on first use.
func (b *bench) class(name string) *opClass {
	for _, c := range b.classes {
		if c.name == name {
			return c
		}
	}
	c := &opClass{name: name}
	b.classes = append(b.classes, c)
	return c
}

// fail records a wrong answer or a count drift; the run then exits non-zero.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
	}
	b.problems = append(b.problems, msg)
}

// passLoop runs fn(pass) until the measured work it reports reaches budget,
// and at least minPasses times. fn returns the duration of its timed part.
func passLoop(budget time.Duration, minPasses int, fn func(pass int) (time.Duration, error)) error {
	var spent time.Duration
	for pass := 0; pass < minPasses || spent < budget; pass++ {
		d, err := fn(pass)
		if err != nil {
			return err
		}
		spent += d
	}
	return nil
}

var workloads = map[string]func(*bench) error{
	"table2-grid": runTable2,
	"serve-mix":   func(b *bench) error { return runServe(b, false) },
	"router-mix":  func(b *bench) error { return runServe(b, true) },
	"search-jobs": runSearch,
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "table2-grid, serve-mix, router-mix or search-jobs")
	seed := fs.Int64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced replay")
	writeRef := fs.String("write-table2-ref", "", "write the one-worker Table 2 reference for --seed to this directory and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *writeRef != "" {
		if err := writeTable2Ref(*writeRef, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	// One P: no idle P spins for work and no walker races another, so the
	// CPU time of a fixed amount of work repeats from run to run.
	runtime.GOMAXPROCS(1)
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		workers:  1,
		clients:  runtime.NumCPU(),
		scratch:  filepath.Join(cwd, ".bench_build"),
		metrics:  map[string]metric{},
	}
	if b.trace {
		b.tracer = newTracer()
	}
	if err := fn(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.tracer != nil {
		path := filepath.Join(b.scratch, "trace", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
		if err := b.tracer.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	var out summary
	for _, c := range b.classes {
		out.Attempted += c.attempted
		out.Failed += c.failed
		fmt.Printf("class %-10s attempted %7d  succeeded %7d  failed %d\n", c.name, c.attempted, c.succeeded, c.failed)
	}
	if out.Attempted == 0 {
		b.fail("no operation was attempted")
	}
	share := 0.0
	if out.Attempted > 0 {
		share = float64(out.Failed) / float64(out.Attempted)
	}
	if b.trace {
		b.set("error_share", share, "ratio")
	} else {
		b.set("success_share", 1-share, "ratio")
	}
	keepMetrics(b)
	out.Correct, out.Metrics = len(b.problems) == 0, b.metrics
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// keepMetrics reduces the reported set to exactly the metrics of the run's
// mode: the end-to-end names untraced, the per-layer names traced. A name the
// workload does not exercise reads 0 (traced) — the layer did no work there.
func keepMetrics(b *bench) {
	names := endToEnd
	if b.trace {
		names = perLayer
	}
	kept := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := b.metrics[n.name]
		if !ok {
			if !b.trace {
				b.fail("end-to-end metric %s was not measured", n.name)
			}
			m = metric{Value: 0, Unit: n.unit}
		}
		kept[n.name] = m
	}
	var extra []string
	for n := range b.metrics {
		if !listed(n) {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		b.fail("metric %s is in neither metric list", n)
	}
	b.metrics = kept
}

type metricName struct{ name, unit string }

func listed(name string) bool {
	for _, list := range [][]metricName{endToEnd, perLayer} {
		for _, n := range list {
			if n.name == name {
				return true
			}
		}
	}
	return false
}

// endToEnd lists the untraced metrics every workload reports.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"success_share", "ratio"},
	{"allocs_per_op", "count"},
	{"rss_peak_mb", "MB"},
}

// perLayer lists the traced metrics; README.md says what each should move.
var perLayer = []metricName{
	{"run.cpu_s", "s"},
	{"run.wall_s", "s"},
	{"run.ops_per_s", "1/s"},
	{"run.p50_ms", "ms"},
	{"run.p99_ms", "ms"},
	{"host.ref_ms", "ms"},

	{"exper.gen_us", "us"},
	{"core.poly_self_us", "us"},
	{"tpn.build_us", "us"},
	{"petri.system_us", "us"},
	{"cycles.karp_us", "us"},
	{"cycles.howard_us", "us"},
	{"cycles.karp_calls", "count"},
	{"cycles.howard_calls", "count"},
	{"engine.parallel_eff", "ratio"},

	{"client.hit_p50_ms", "ms"},
	{"client.miss_p50_ms", "ms"},
	{"client.register_p50_ms", "ms"},
	{"service.handler_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.respmemo_hit_ratio", "ratio"},
	{"service.coalesced_per_kop", "count"},
	{"engine.memo_hit_ratio", "ratio"},
	{"store.evictions_per_kop", "count"},
	{"net.overhead_ms", "ms"},
	{"service.decode_us", "us"},
	{"engine.key_us", "us"},
	{"store.put_us", "us"},
	{"store.resolve_us", "us"},
	{"engine.eval_miss_us", "us"},
	{"service.encode_us", "us"},

	{"cluster.self_ms", "ms"},
	{"cluster.respmemo_hit_ratio", "ratio"},
	{"cluster.replaycache_hit_ratio", "ratio"},
	{"cluster.skew", "ratio"},
	{"cluster.retries", "count"},
	{"cluster.replays", "count"},

	{"sched.greedy_ms", "ms"},
	{"sched.best_ms", "ms"},
	{"bnb.frontier_ms", "ms"},
	{"bnb.walk_ms", "ms"},
	{"bnb.root_max_ms", "ms"},
	{"bnb.nodes", "count"},
	{"bnb.leaves", "count"},
	{"bnb.pruned", "count"},
	{"bnb.screened", "count"},
	{"bnb.nodes_per_s", "1/s"},
	{"bnb.leaves_per_s", "1/s"},
	{"bnb.allocs_per_node", "count"},
	{"jobs.submit_ms", "ms"},
	{"jobs.result_ms", "ms"},
	{"jobs.polls_per_job", "count"},
	{"jobs.overhead_ms", "ms"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.record_kb", "KB"},

	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
	{"error_share", "ratio"},
}
