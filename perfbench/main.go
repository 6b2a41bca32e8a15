// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload for a fixed time, checks every run for correctness, and
// prints each metric by name with its unit and sample count; its last
// line of output is one JSON object with the verdict and the metrics.
//
//	perfbench --workload http-mix --seed 1 --seconds 30 --trace 0 --out DIR
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs the workload twice, untraced and then traced (spans and a CPU
// profile), and reports the per-layer metrics plus the tracing overhead
// of every end-to-end metric. See README.md for the workloads and what
// each metric predicts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for WAL files, spans and profiles
}

// workload is one benchmark input: a traffic mix on a configured cluster.
type workload interface {
	run(rc runConfig, traced bool) (*result, error)
}

var workloads = map[string]workload{
	httpMix.Name: httpMix,
	simTPCC.Name: simTPCC,
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"max_rate_at_slo_txn_s", "txn/s"},
	{"cpu_us_per_txn", "us"},
	{"setup_s", "s"},
	{"stats_read_ms_p90", "ms"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics. A layer a workload does not run
// reports 0.
var perLayer = []metricDef{
	{"setup.new_ms_p50", "ms"},
	{"setup.register_ms_p50", "ms"},
	{"setup.register_batch_ms_p50", "ms"},
	{"setup.recover_ms_p50", "ms"},
	{"client.submit_ms_p50", "ms"},
	{"client.submit_ms_p99", "ms"},
	{"wire.overhead_ms_p50", "ms"},
	{"httpapi.serve_ms_p50", "ms"},
	{"httpapi.serve_ms_p99", "ms"},
	{"httpapi.self_ms_p50", "ms"},
	{"httpapi.resp_bytes_per_txn", "bytes"},
	{"engine.local_ms_p50", "ms"},
	{"engine.local_ms_p99", "ms"},
	{"engine.sync_ms_p50", "ms"},
	{"engine.sync_ms_p99", "ms"},
	{"sync.rounds", "count"},
	{"sync.rounds_per_1k_txn", "count"},
	{"sync.comm_ms_p50", "ms"},
	{"sync.comm_ms_p99", "ms"},
	{"sync.solver_ms_avg", "ms"},
	{"sync.busy_retries", "count"},
	{"sync.co_winners", "count"},
	{"sync.treaty_gen_failures", "count"},
	{"store.commits", "count"},
	{"store.aborts", "count"},
	{"store.abort_ratio", "ratio"},
	{"store.conflict_aborts", "count"},
	{"store.deadlocks", "count"},
	{"store.timeouts", "count"},
	{"cache.analysis_hit_ratio", "ratio"},
	{"solver.warm_starts", "count"},
	{"solver.fallbacks", "count"},
	{"solver.warm_useful_ratio", "ratio"},
	{"wal.bytes_per_txn", "bytes"},
	{"stats.samples_held", "count"},
	{"go.allocs_per_txn", "count"},
	{"go.alloc_bytes_per_txn", "bytes"},
	{"go.gc_cpu_pct", "%"},
	{"go.sched_latency_ms_p99", "ms"},
	{"cpu.share.net_http", "ratio"},
	{"cpu.share.encoding_json", "ratio"},
	{"cpu.share.syscall", "ratio"},
	{"cpu.share.client", "ratio"},
	{"cpu.share.httpapi", "ratio"},
	{"cpu.share.exec", "ratio"},
	{"cpu.share.negotiate", "ratio"},
	{"cpu.share.treaty_optimize", "ratio"},
	{"cpu.share.store", "ratio"},
	{"cpu.share.rtlive", "ratio"},
	{"cpu.share.sim", "ratio"},
	{"cpu.share.wal", "ratio"},
	{"cpu.share.gc", "ratio"},
	{"gen.offered_txn_s", "txn/s"},
	{"gen.achieved_txn_s", "txn/s"},
	{"gen.lag_ms_p50", "ms"},
	{"gen.lag_ms_p99", "ms"},
}

// overheadName names the per-layer metric carrying an end-to-end
// metric's traced-minus-untraced difference.
func overheadName(e2e string) string { return "overhead." + e2e }

// layerMetrics is perLayer followed by the tracing overheads.
func layerMetrics() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, m := range endToEnd {
		out = append(out, metricDef{overheadName(m.name), m.unit})
	}
	return out
}

// measured is one end-to-end value with its sample count.
type measured struct {
	value   float64
	samples int
}

type check struct {
	name   string
	ok     bool
	detail string
}

// result is what one pass over a workload measured and checked.
type result struct {
	e2eVals           map[string]measured
	layer             map[string]float64
	checks            []check
	attempted, failed int
	info              map[string]any
}

func newResult() *result {
	return &result{e2eVals: map[string]measured{}, layer: map[string]float64{}, info: map[string]any{}}
}

func (r *result) e2e(name string, v float64, samples int) {
	r.e2eVals[name] = measured{v, samples}
}

// check records a correctness verdict. Repeated names are merged: the
// check fails if any of its verdicts failed, and keeps the first
// failure's detail.
func (r *result) check(name string, ok bool, detail string) {
	for i := range r.checks {
		if r.checks[i].name == name {
			if r.checks[i].ok && !ok {
				r.checks[i] = check{name, ok, detail}
			}
			return
		}
	}
	r.checks = append(r.checks, check{name, ok, detail})
}

func (r *result) checkErr(name string, err error) {
	if err != nil {
		r.check(name, false, err.Error())
		return
	}
	r.check(name, true, "")
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var rc runConfig
	var trace int
	fs.StringVar(&rc.workload, "workload", "", "workload to run: http-mix or sim-tpcc")
	fs.Int64Var(&rc.seed, "seed", 1, "seed the inputs are generated from")
	fs.IntVar(&rc.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from a traced run")
	fs.StringVar(&rc.out, "out", "", "directory for WAL files, spans and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[rc.workload]
	if !ok || rc.seconds < 1 || (trace != 0 && trace != 1) || rc.out == "" {
		fmt.Fprintln(stderr, "perfbench: need --workload (http-mix or sim-tpcc), --seconds >= 1, --trace 0|1 and --out")
		return 2
	}
	rc.trace = trace == 1
	if err := os.MkdirAll(rc.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg, err := json.Marshal(struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Seconds  int      `json:"seconds"`
		Trace    bool     `json:"trace"`
		Workers  int      `json:"load_workers"`
		Spec     workload `json:"spec"`
	}{rc.workload, rc.seed, rc.seconds, rc.trace, loadWorkers(), w})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "config %s\n", cfg)

	res, err := w.run(rc, false)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", rc.workload, err)
		return 1
	}
	report(stdout, "untraced", res)
	out := res
	defs := endToEnd
	value := func(name string) float64 { return res.e2eVals[name].value }
	if rc.trace {
		traced, err := w.run(rc, true)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", rc.workload, err)
			return 1
		}
		report(stdout, "traced", traced)
		for _, m := range endToEnd {
			traced.layer[overheadName(m.name)] = traced.e2eVals[m.name].value - res.e2eVals[m.name].value
		}
		// Both passes must be correct; the traced one's verdicts follow.
		for _, c := range traced.checks {
			res.check(c.name, c.ok, c.detail)
		}
		traced.checks = res.checks
		out, defs = traced, layerMetrics()
		value = func(name string) float64 { return traced.layer[name] }
		for _, m := range defs {
			fmt.Fprintf(stdout, "layer %-36s %14.6g %s\n", m.name, value(m.name), m.unit)
		}
	}

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{out.correct(), out.attempted, out.failed, map[string]jsonMetric{}}
	for _, m := range defs {
		final.Metrics[m.name] = jsonMetric{value(m.name), m.unit}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

// report prints one pass's end-to-end metrics with sample counts, its
// other figures and its correctness checks.
func report(w io.Writer, pass string, r *result) {
	for _, m := range endToEnd {
		v := r.e2eVals[m.name]
		fmt.Fprintf(w, "%s %-24s %14.6g %-6s samples=%d\n", pass, m.name, v.value, m.unit, v.samples)
	}
	keys := make([]string, 0, len(r.info))
	for k := range r.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s info %s %v\n", pass, k, r.info[k])
	}
	fmt.Fprintf(w, "%s attempted=%d failed=%d\n", pass, r.attempted, r.failed)
	for _, c := range r.checks {
		verdict := "ok"
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%s check %-22s %s %s\n", pass, c.name, verdict, c.detail)
	}
}
