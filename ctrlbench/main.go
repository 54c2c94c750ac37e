// Command ctrlbench is the repository's control-plane benchmark. It runs
// the real daemon stack in process (mlcdsys.New →
// mlcdapi.NewServerWithConfig → Server.ServeHTTP, no sockets) with the
// daemon's defaults — two search workers, fleet prior on, segmented
// journal on a RAM-backed directory — and drives it from two closed-loop
// client goroutines:
//
//	bash ctrlbench/run.sh --workload cold-search --seed 1 --seconds 20 --trace 0
//
// Workloads are cold-search, warm-rerun and durable-admit; WORKLOADS.md
// says why each exists. --seed shapes the generated inputs only, and
// --seconds sets how much work a run measures. With --trace 0 the run
// reports the end-to-end metrics; with --trace 1 it runs the same work
// twice at half size, untraced then traced, and reports the per-layer
// metrics and the tracing overhead. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
	lower      bool // lower is better
}

// endToEnd are the metrics a tenant sees, reported by untraced runs for
// every workload. "op" is a job pick (submit → terminal status) on the
// search workloads and a durable acknowledgement on durable-admit.
// GET latency is a per-layer metric of durable-admit, the one workload
// whose GETs are timed operations.
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"ops_per_s", "1/s", false},
	{"op_ms_p50", "ms", true},
	{"op_ms_p90", "ms", true},
	{"rss_peak_mb", "MB", true},
	{"ok_share", "ratio", false},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0.
var perLayer = append([]metricDef{
	{"core.search_ms_per_job", "ms", true},
	{"core.warm_obs_per_job", "count", true},
	{"gp.refits_per_job", "count", true},
	{"gp.refit_ms_per_job", "ms", true},
	{"core.sweeps_per_job", "count", true},
	{"core.sweep_ms_per_job", "ms", true},
	{"profiler.probes_per_job", "count", true},
	{"profiler.probe_ms_per_job", "ms", true},
	{"sched.cache_hit_ratio", "ratio", false},
	{"fleetprior.armed_share", "ratio", false},
	{"sched.queue_wait_ms_p50", "ms", true},
	{"sched.finalize_ms_p50", "ms", true},
	{"faultfs.syncs_per_job", "count", true},
	{"mlcdapi.self_us_p50", "us", true},
	{"shardplane.self_us_p50", "us", true},
	{"shardplane.shard_skew", "ratio", true},
	{"sched.journal_us_p50", "us", true},
	{"sched.append_us_mean", "us", true},
	{"faultfs.syncs_per_ack", "count", true},
	{"faultfs.bytes_per_ack", "B", true},
	{"faultfs.sync_us_mean", "us", true},
	{"faultfs.write_us_mean", "us", true},
	{"faultfs.segments_opened", "count", true},
	{"faultfs.replay_read_mb", "MB", true},
	{"faultfs.replay_read_ms", "ms", true},
	{"outcome.profile_usd_per_job", "USD", true},
	{"outcome.total_usd_per_job", "USD", true},
	{"outcome.total_h_per_job", "h", true},
	{"outcome.failed_share", "ratio", true},
	{"mlcdapi.get_us_p50", "us", true},
	{"mlcdapi.get_us_p90", "us", true},
}, overheadDefs()...)

// overheadDefs are the tracing overhead per end-to-end metric: how much
// worse the traced pass read than the untraced one, in percent.
func overheadDefs() []metricDef {
	out := make([]metricDef, 0, len(endToEnd))
	for _, m := range endToEnd {
		out = append(out, metricDef{"bench.trace_overhead_pct." + m.name, "%", true})
	}
	return out
}

var workloads = []string{"cold-search", "warm-rerun", "durable-admit"}

// options are one run's parameters.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    float64 // work multiplier: 1 in real runs, ~0.01 in the self-test
	outDir   string  // where a traced run writes its spans
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a finished run: the result line plus the diagnostics printed
// above it.
type report struct {
	result
	lines []string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "cold-search, warm-rerun or durable-admit")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds; sets the work size")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	flag.Parse()
	o.trace = trace == 1
	o.scale = 1
	o.outDir = filepath.Join(".bench_build", "trace")
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctrlbench:", err)
		os.Exit(1)
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	b, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctrlbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run executes one benchmark run.
func run(o options) (report, error) {
	var rep report
	if !slices.Contains(workloads, o.workload) {
		return rep, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	}
	if o.seconds < 1 {
		return rep, errors.New("--seconds must be at least 1")
	}
	ram, err := ramDir()
	if err != nil {
		return rep, fmt.Errorf("creating the journal directory: %w", err)
	}
	defer os.RemoveAll(ram)
	rep.lines = append(rep.lines, fmt.Sprintf("ctrlbench: workload=%s seed=%d seconds=%d trace=%t journals=%s",
		o.workload, o.seed, o.seconds, o.trace, ram))
	refStart := refLoopMS()
	ticks0, steal0 := cpuTicks()

	pc := passConfig{workload: o.workload, seed: o.seed, seconds: o.seconds, share: o.scale, ram: ram}
	var passes []passResult
	if !o.trace {
		pc.name = "run"
		p, err := runPass(pc)
		if err != nil {
			return rep, err
		}
		passes = append(passes, p)
		rep.Metrics = pick(endToEnd, p.e2e)
	} else {
		pc.share /= 2
		pc.name = "untraced"
		u, err := runPass(pc)
		if err != nil {
			return rep, err
		}
		runtime.GC()
		pc.name = "traced"
		pc.tr = newTracer(ram)
		t, err := runPass(pc)
		if err != nil {
			return rep, err
		}
		passes = append(passes, u, t)
		if u.digest != t.digest {
			t.problems = append(t.problems, fmt.Sprintf("traced outcome digest %s differs from untraced %s", t.digest, u.digest))
		}
		for _, m := range endToEnd {
			worse := ratio(t.e2e[m.name], u.e2e[m.name]) - 1
			if !m.lower {
				worse = ratio(u.e2e[m.name], t.e2e[m.name]) - 1
			}
			t.layers["bench.trace_overhead_pct."+m.name] = 100 * worse
		}
		passes[1] = t
		path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := pc.tr.writeSpans(path); err != nil {
			return rep, fmt.Errorf("writing spans: %w", err)
		}
		rep.lines = append(rep.lines, "spans: "+path)
		rep.Metrics = pick(perLayer, t.layers)
	}
	rep.Correct = true
	for _, p := range passes {
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		rep.lines = append(rep.lines, p.lines(pc.workload)...)
		for _, pr := range p.problems {
			rep.Correct = false
			rep.lines = append(rep.lines, "CHECK FAILED: "+pr)
		}
	}
	ticks1, steal1 := cpuTicks()
	rep.lines = append(rep.lines, fmt.Sprintf("host: ref_loop_ms start=%.2f end=%.2f, cpu steal %.1f%% (diagnostics, not gated)",
		refStart, refLoopMS(), 100*ratio(steal1-steal0, ticks1-ticks0)))
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		rep.lines = append(rep.lines, fmt.Sprintf("metric %s = %.6g %s", name, m.Value, m.Unit))
	}
	return rep, nil
}

// pick selects the listed metrics, with their units, from values.
func pick(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
