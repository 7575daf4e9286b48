package main

import (
	"fmt"
	"io"
	"strconv"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names; TestBenchmarkJSONMatchesCode keeps them in
// step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the stack sees, reported from the
// untraced run on every workload. An "op" is one sweep point
// (sweep-cold), one full paper suite pass (repro-cold, repro-warm) or
// one 100k-request fleet replay (fleet-replay).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"max_rss_mb", "MB"},
	{"paper_log_err", "ratio"},
}

// perLayer are the per-layer metrics of the traced run. Times come from
// the benchmark's own spans around calls into each layer; counts from
// the layers' public accessors over the untraced run. A layer the
// workload never calls reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"deploy.lower_calls_per_op", "count"},
		{"deploy.lower_us_p50", "us"},
		{"deploy.busy_ms_per_op", "ms"},
		{"interconnect.lowerings_per_op", "count"},
		{"interconnect.lower_ms_p50", "ms"},
		{"interconnect.busy_ms_per_op", "ms"},
		{"interconnect.intern_hit_ratio", "ratio"},
		{"perfsim.runs_per_op", "count"},
		{"perfsim.run_us_p50", "us"},
		{"perfsim.run_us_p99", "us"},
		{"perfsim.busy_ms_per_op", "ms"},
		{"perfsim.sim_cycles_per_s", "cycles/s"},
		{"energy.calls_per_op", "count"},
		{"energy.busy_ms_per_op", "ms"},
		{"evalpool.requests_per_op", "count"},
		{"evalpool.memory_hits_per_op", "count"},
		{"evalpool.disk_hits_per_op", "count"},
		{"evalpool.sims_per_op", "count"},
		{"evalpool.hit_ratio", "ratio"},
		{"resultstore.open_ms", "ms"},
		{"resultstore.entries", "count"},
		{"resultstore.mb", "MB"},
		{"resultstore.skipped", "count"},
		{"resultstore.load_us_p50", "us"},
		{"resultstore.load_us_p99", "us"},
		{"resultstore.append_us_p50", "us"},
		{"resultstore.busy_ms_per_op", "ms"},
	}
	for _, s := range suiteSteps {
		defs = append(defs, metricDef{"experiments." + s.name + "_ms", "ms"})
	}
	return append(defs,
		metricDef{"explore.exact_sims", "count"},
		metricDef{"fleet.run_ms_p50", "ms"},
		metricDef{"fleet.steps_per_s", "steps/s"},
		metricDef{"fleet.distinct_shapes", "count"},
		metricDef{"fleet.evaluations_per_run", "count"},
		metricDef{"fleet.exact_sims_per_run", "count"},
		metricDef{"fleet.trace_gen_ms", "ms"},
		metricDef{"runtime.gc_cycles_per_op", "count"},
		metricDef{"runtime.gc_pause_ms_per_op", "ms"},
		metricDef{"runtime.mallocs_per_op", "count"},
		metricDef{"bench.trace_overhead", "ratio"},
	)
}()

// metrics collects one run's measured values by name.
type metrics map[string]float64

// value is one metric in the result line and the -json record.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns the defs' values, a metric the run did not measure
// reading 0.
func (m metrics) pick(defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{m[d.name], d.unit}
	}
	return out
}

// print writes the metrics of defs as "name value unit", with all the
// digits of the measurement, prefixing each name. With all, a metric
// the run did not measure prints as 0; otherwise it is left out.
func (m metrics) print(w io.Writer, prefix string, defs []metricDef, all bool) {
	for _, d := range defs {
		if v, ok := m[d.name]; ok || all {
			fmt.Fprintf(w, "%s%s %s %s\n", prefix, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		}
	}
}
