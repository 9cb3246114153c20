package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric the program prints. BENCHMARK.json repeats
// these names, units and directions (and alone holds the regression
// bounds); a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

// defaultSeconds is how long one run measures when -seconds is not
// given; BENCHMARK.json's run_seconds says the same.
const defaultSeconds = 15

// endToEnd lists what a user of the system sees, measured with tracing
// off. fail_ratio is reported through the result's attempted and failed
// counts, not as a metric: it is 0 on every healthy run, and a metric
// that is 0 has no relative regression bound.
var endToEnd = []metricDef{
	{"req_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_time", "sim", "lower"},
	{"model_err_max", "ratio", "lower"},
}

// exactMetrics are simulated quantities: deterministic, so two runs of
// the same code, and a change that only speeds up the host side, must
// agree on them to the last bit.
var exactMetrics = map[string]bool{"sim_time": true, "model_err_max": true}

// perLayer lists the single-layer metrics of the traced pass, by module.
var perLayer = []metricDef{
	// internal/server: handler, codec, net/http
	{"server.http_self_ms", "ms", "lower"},
	{"server.codec_self_ms", "ms", "lower"},
	{"server.allocs_per_req", "count", "lower"},
	{"server.alloc_bytes_per_req", "bytes", "lower"},
	{"server.req_bytes", "bytes", "lower"},
	{"server.resp_bytes", "bytes", "lower"},
	{"server.handler_ms", "ms", "lower"},
	{"server.plan_ms", "ms", "lower"},
	// internal/server scheduler and planner
	{"scheduler.admission_us", "us", "lower"},
	{"scheduler.queue_wait_ms", "ms", "lower"},
	{"scheduler.self_ms", "ms", "lower"},
	{"planner.plan_hit_us", "us", "lower"},
	{"planner.plan_miss_us", "us", "lower"},
	{"planner.cache_hit_ratio", "ratio", "higher"},
	// internal/qos
	{"qos.push_pop_ns", "ns", "lower"},
	{"qos.bucket_take_ns", "ns", "lower"},
	{"qos.quota_rejects", "count", "lower"},
	{"qos.sheds", "count", "lower"},
	// hypermm.MachinePool
	{"pool.checkout_us", "us", "lower"},
	{"pool.hit_ratio", "ratio", "higher"},
	{"pool.warm_gain_ms", "ms", "higher"},
	// internal/simnet
	{"simnet.run_ms", "ms", "lower"},
	{"simnet.msgs_per_req", "count", "lower"},
	{"simnet.words_per_req", "count", "lower"},
	{"simnet.startups_per_req", "count", "lower"},
	{"simnet.host_ns_per_msg", "ns", "lower"},
	{"simnet.run_cold_ms", "ms", "lower"},
	{"simnet.run_warm_ms", "ms", "lower"},
	{"simnet.allocs_per_run", "count", "lower"},
	{"simnet.goroutines_idle", "count", "lower"},
	// internal/collective
	{"collective.bcast_p64_ms", "ms", "lower"},
	{"collective.allgather_p64_ms", "ms", "lower"},
	{"collective.reducescatter_p64_ms", "ms", "lower"},
	{"collective.alltoall_p64_ms", "ms", "lower"},
	{"collective.allgather_host_ns_per_word", "ns", "lower"},
	{"collective.table1_max_rel_err", "ratio", "lower"},
	// internal/matrix
	{"matrix.gflops_b64", "Gflop/s", "higher"},
	{"matrix.gflops_b128", "Gflop/s", "higher"},
	{"matrix.gflops_b256", "Gflop/s", "higher"},
	{"matrix.flops_per_req", "count", "lower"},
	{"matrix.kernel_share", "ratio", "higher"},
	// internal/cost
	{"cost.regionmap_ms", "ms", "lower"},
	// internal/cluster
	{"cluster.dispatch_ms", "ms", "lower"},
	{"cluster.rtt_overhead_ms", "ms", "lower"},
	{"cluster.rtt_overhead_2w_ms", "ms", "lower"},
	{"cluster.worker_balance", "ratio", "higher"},
	{"cluster.failovers", "count", "lower"},
	{"cluster.busy_retries", "count", "lower"},
	{"cluster.bytes_per_job", "bytes", "lower"},
	// internal/obs and the benchmark's own tracing
	{"obs.span_ns", "ns", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
	// the processes
	{"process.cpu_ms_per_req", "ms", "lower"},
	{"process.gen_cpu_share", "ratio", "lower"},
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches units to measured values and insists that exactly
// the declared metrics were measured.
func withUnits(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return out, nil
}

// benchmarkSpec is the part of BENCHMARK.json the program reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
