package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hypermm/internal/cluster"
	"hypermm/internal/qos"
)

// Metrics is the hmmd observability registry. It is hand-rolled — the
// container carries no Prometheus client library — but renders the
// standard text exposition format, so any Prometheus scraper can
// consume /metrics. Safe for concurrent use.
type Metrics struct {
	mu          sync.Mutex
	queueDepth  int64
	inflight    int64
	calibration int64 // 1 when a calibration profile is loaded
	jobsByAlg   map[string]int64
	rejects     int64
	errsByKind  map[string]int64
	latency     *Histogram            // wall-clock seconds per job
	ratio       *Histogram            // simulated elapsed / predicted time
	stages      map[string]*Histogram // per-stage wall seconds (hmmd_stage_seconds)
}

// stageBuckets suit the per-stage breakdown: plan-cache lookups run in
// microseconds, queue waits in micro-to-milliseconds, simulated runs
// and cluster dispatches up to seconds.
var stageBuckets = []float64{1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, .01, .05, .1, .5, 1, 5}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		jobsByAlg:  map[string]int64{},
		errsByKind: map[string]int64{},
		// Wall-clock latency: sub-millisecond small jobs through
		// multi-second big ones.
		latency: NewHistogram([]float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}),
		// Simulated-vs-predicted time: centered on 1.0 (model exact).
		ratio:  NewHistogram([]float64{.5, .75, .9, .95, 1, 1.05, 1.1, 1.25, 1.5, 2, 4}),
		stages: map[string]*Histogram{},
	}
}

// StageObserve records one request's time in a named pipeline stage
// ("handler", "plan", "admission", "queue", "run",
// "dispatch", ...) for the hmmd_stage_seconds histogram family — the
// per-stage decomposition of job latency.
func (m *Metrics) StageObserve(stage string, d time.Duration) {
	m.mu.Lock()
	h, ok := m.stages[stage]
	if !ok {
		h = NewHistogram(stageBuckets)
		m.stages[stage] = h
	}
	h.Observe(d.Seconds())
	m.mu.Unlock()
}

// StageCount reads the sample count of one stage histogram (0 when the
// stage has never been observed).
func (m *Metrics) StageCount(stage string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.stages[stage]; ok {
		return h.Count()
	}
	return 0
}

// QueueAdd shifts the queue-depth gauge by d.
func (m *Metrics) QueueAdd(d int64) { m.mu.Lock(); m.queueDepth += d; m.mu.Unlock() }

// InflightAdd shifts the in-flight gauge by d.
func (m *Metrics) InflightAdd(d int64) { m.mu.Lock(); m.inflight += d; m.mu.Unlock() }

// QueueDepth reads the queue-depth gauge.
func (m *Metrics) QueueDepth() int64 { m.mu.Lock(); defer m.mu.Unlock(); return m.queueDepth }

// SetCalibrationLoaded records whether a calibration profile is
// driving the planner (the hmmd_calibration_loaded gauge).
func (m *Metrics) SetCalibrationLoaded(loaded bool) {
	m.mu.Lock()
	if loaded {
		m.calibration = 1
	} else {
		m.calibration = 0
	}
	m.mu.Unlock()
}

// JobDone records one completed job: its algorithm, wall-clock latency
// and simulated-vs-predicted time ratio.
func (m *Metrics) JobDone(alg string, wall time.Duration, ratio float64) {
	m.mu.Lock()
	m.jobsByAlg[alg]++
	m.latency.Observe(wall.Seconds())
	if ratio > 0 {
		m.ratio.Observe(ratio)
	}
	m.mu.Unlock()
}

// Reject records one admission-control rejection.
func (m *Metrics) Reject() { m.mu.Lock(); m.rejects++; m.mu.Unlock() }

// Rejects reads the rejection counter.
func (m *Metrics) Rejects() int64 { m.mu.Lock(); defer m.mu.Unlock(); return m.rejects }

// JobError records one failed job by error kind ("link_down",
// "deadline", "run", ...).
func (m *Metrics) JobError(kind string) { m.mu.Lock(); m.errsByKind[kind]++; m.mu.Unlock() }

// Jobs returns the per-algorithm completion counts (a copy).
func (m *Metrics) Jobs() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.jobsByAlg))
	for k, v := range m.jobsByAlg {
		out[k] = v
	}
	return out
}

// LatencyQuantile returns the approximate q-quantile (0 < q < 1) of job
// wall-clock latency in seconds.
func (m *Metrics) LatencyQuantile(q float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latency.Quantile(q)
}

// Render writes the Prometheus text exposition. The cache counters
// come from the planner, the cluster family from the coordinator (cl
// nil when serving standalone), and the hmmd_qos_* family from the
// scheduler's tenant registry (qs nil when no QoS policy is loaded), so
// the registry stays a passive sink.
func (m *Metrics) Render(cacheHits, cacheMisses, cacheEntries int64, cl *cluster.Stats, qs []qos.TenantStats) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sb strings.Builder

	fmt.Fprintf(&sb, "# HELP hmmd_queue_depth Jobs waiting in the scheduler queue.\n# TYPE hmmd_queue_depth gauge\nhmmd_queue_depth %d\n", m.queueDepth)
	fmt.Fprintf(&sb, "# HELP hmmd_inflight_jobs Jobs currently executing.\n# TYPE hmmd_inflight_jobs gauge\nhmmd_inflight_jobs %d\n", m.inflight)
	fmt.Fprintf(&sb, "# HELP hmmd_calibration_loaded Whether a measurement-fitted calibration profile drives the planner.\n# TYPE hmmd_calibration_loaded gauge\nhmmd_calibration_loaded %d\n", m.calibration)

	sb.WriteString("# HELP hmmd_jobs_total Completed jobs by algorithm.\n# TYPE hmmd_jobs_total counter\n")
	for _, alg := range sortedKeys(m.jobsByAlg) {
		fmt.Fprintf(&sb, "hmmd_jobs_total{algorithm=%q} %d\n", alg, m.jobsByAlg[alg])
	}

	fmt.Fprintf(&sb, "# HELP hmmd_rejects_total Jobs rejected by admission control.\n# TYPE hmmd_rejects_total counter\nhmmd_rejects_total %d\n", m.rejects)

	sb.WriteString("# HELP hmmd_job_errors_total Failed jobs by error kind.\n# TYPE hmmd_job_errors_total counter\n")
	for _, kind := range sortedKeys(m.errsByKind) {
		fmt.Fprintf(&sb, "hmmd_job_errors_total{kind=%q} %d\n", kind, m.errsByKind[kind])
	}

	fmt.Fprintf(&sb, "# HELP hmmd_plan_cache_hits_total Planner LRU cache hits.\n# TYPE hmmd_plan_cache_hits_total counter\nhmmd_plan_cache_hits_total %d\n", cacheHits)
	fmt.Fprintf(&sb, "# HELP hmmd_plan_cache_misses_total Planner LRU cache misses.\n# TYPE hmmd_plan_cache_misses_total counter\nhmmd_plan_cache_misses_total %d\n", cacheMisses)
	fmt.Fprintf(&sb, "# HELP hmmd_plan_cache_entries Plans currently resident in the LRU cache.\n# TYPE hmmd_plan_cache_entries gauge\nhmmd_plan_cache_entries %d\n", cacheEntries)

	if cl != nil {
		live := 0
		for _, w := range cl.Workers {
			if !w.Draining {
				live++
			}
		}
		fmt.Fprintf(&sb, "# HELP hmmd_cluster_workers Registered non-draining cluster workers.\n# TYPE hmmd_cluster_workers gauge\nhmmd_cluster_workers %d\n", live)
		fmt.Fprintf(&sb, "# HELP hmmd_cluster_dispatches_total Job frames sent to workers.\n# TYPE hmmd_cluster_dispatches_total counter\nhmmd_cluster_dispatches_total %d\n", cl.Dispatched)
		fmt.Fprintf(&sb, "# HELP hmmd_cluster_completed_total Jobs answered cleanly by workers.\n# TYPE hmmd_cluster_completed_total counter\nhmmd_cluster_completed_total %d\n", cl.Completed)
		fmt.Fprintf(&sb, "# HELP hmmd_cluster_failovers_total Re-dispatches after a worker died mid-job.\n# TYPE hmmd_cluster_failovers_total counter\nhmmd_cluster_failovers_total %d\n", cl.Failovers)
		fmt.Fprintf(&sb, "# HELP hmmd_cluster_busy_retries_total Re-dispatches after a busy answer.\n# TYPE hmmd_cluster_busy_retries_total counter\nhmmd_cluster_busy_retries_total %d\n", cl.BusyRetries)
		sb.WriteString("# HELP hmmd_cluster_worker_jobs_total Cleanly completed jobs by worker.\n# TYPE hmmd_cluster_worker_jobs_total counter\n")
		for _, w := range cl.Workers {
			fmt.Fprintf(&sb, "hmmd_cluster_worker_jobs_total{worker=%q} %d\n", w.Name, w.Jobs)
		}
		sb.WriteString("# HELP hmmd_cluster_worker_inflight Dispatched, unanswered jobs by worker.\n# TYPE hmmd_cluster_worker_inflight gauge\n")
		for _, w := range cl.Workers {
			fmt.Fprintf(&sb, "hmmd_cluster_worker_inflight{worker=%q} %d\n", w.Name, w.Inflight)
		}
		sb.WriteString("# HELP hmmd_cluster_worker_breaker_open Circuit breaker state by worker (1 open or half-open, 0 closed).\n# TYPE hmmd_cluster_worker_breaker_open gauge\n")
		for _, w := range cl.Workers {
			open := 0
			if w.Breaker != cluster.BreakerClosed {
				open = 1
			}
			fmt.Fprintf(&sb, "hmmd_cluster_worker_breaker_open{worker=%q} %d\n", w.Name, open)
		}
	}

	if len(qs) > 0 {
		qosGauge := func(name, help string, val func(qos.TenantStats) string) {
			fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
			for _, t := range qs {
				fmt.Fprintf(&sb, "%s{tenant=%q} %s\n", name, t.Name, val(t))
			}
		}
		qosCounter := func(name, help string, val func(qos.TenantStats) int64) {
			fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, t := range qs {
				fmt.Fprintf(&sb, "%s{tenant=%q} %d\n", name, t.Name, val(t))
			}
		}
		qosGauge("hmmd_qos_queue_depth", "Queued jobs by tenant.",
			func(t qos.TenantStats) string { return strconv.Itoa(t.Queued) })
		qosGauge("hmmd_qos_inflight", "Executing jobs by tenant.",
			func(t qos.TenantStats) string { return strconv.Itoa(t.Inflight) })
		qosCounter("hmmd_qos_jobs_total", "Completed jobs by tenant.",
			func(t qos.TenantStats) int64 { return t.Jobs })
		qosCounter("hmmd_qos_sheds_total", "Queued jobs evicted under overload by tenant.",
			func(t qos.TenantStats) int64 { return t.Sheds })
		qosCounter("hmmd_qos_quota_rejects_total", "Jobs refused on an exhausted token bucket by tenant.",
			func(t qos.TenantStats) int64 { return t.QuotaRejects })
		qosCounter("hmmd_qos_infeasible_total", "Jobs refused because predicted time exceeded their deadline, by tenant.",
			func(t qos.TenantStats) int64 { return t.Infeasible })
		qosGauge("hmmd_qos_tokens", "Token-bucket balance in predicted-cost units by tenant.",
			func(t qos.TenantStats) string { return formatFloat(t.Tokens) })
		qosGauge("hmmd_qos_debt", "Token-bucket overdraft in predicted-cost units by tenant.",
			func(t qos.TenantStats) string { return formatFloat(t.Debt) })
	}

	if len(m.stages) > 0 {
		sb.WriteString("# HELP hmmd_stage_seconds Per-stage wall-clock latency decomposition of the serving path.\n# TYPE hmmd_stage_seconds histogram\n")
		stageNames := make([]string, 0, len(m.stages))
		for name := range m.stages {
			stageNames = append(stageNames, name)
		}
		sort.Strings(stageNames)
		for _, stage := range stageNames {
			m.stages[stage].renderLabeled(&sb, "hmmd_stage_seconds", "stage", stage)
		}
	}

	m.latency.render(&sb, "hmmd_job_latency_seconds", "Job wall-clock latency in seconds.")
	fmt.Fprintf(&sb, "# HELP hmmd_job_latency_quantile_seconds Approximate latency quantiles from the histogram.\n# TYPE hmmd_job_latency_quantile_seconds gauge\n")
	for _, q := range []float64{0.5, 0.99} {
		fmt.Fprintf(&sb, "hmmd_job_latency_quantile_seconds{q=%q} %s\n",
			strconv.FormatFloat(q, 'g', -1, 64), formatFloat(m.latency.Quantile(q)))
	}

	m.ratio.render(&sb, "hmmd_sim_predicted_ratio", "Simulated elapsed time over the planner's predicted time.")
	return sb.String()
}

func sortedKeys(m map[string]int64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Histogram is a fixed-bucket histogram in the Prometheus style:
// cumulative bucket counts plus sum and count. Not safe for concurrent
// use on its own; Metrics serializes access.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []int64   // per-bucket (non-cumulative), len(bounds)+1
	sum    float64
	count  int64
}

// NewHistogram returns a histogram over the given ascending bucket
// upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count }

// Quantile returns the approximate q-quantile, interpolated within the
// bucket that contains it. Returns 0 with no samples; samples beyond
// the last bound report that bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	var cum int64
	for i, c := range h.counts {
		prev := cum
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i == len(h.bounds) { // overflow bucket: report last bound
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(prev)) / float64(c)
			return lo + (hi-lo)*frac
		}
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) render(sb *strings.Builder, name, help string) {
	fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(sb, "%s_bucket{le=%q} %d\n", name, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(sb, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(sb, "%s_sum %s\n", name, formatFloat(h.sum))
	fmt.Fprintf(sb, "%s_count %d\n", name, h.count)
}

// renderLabeled is render for one series of a labeled histogram family;
// HELP/TYPE headers are the caller's job (emitted once per family).
func (h *Histogram) renderLabeled(sb *strings.Builder, name, labelKey, labelVal string) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(sb, "%s_bucket{%s=%q,le=%q} %d\n", name, labelKey, labelVal, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(sb, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, labelKey, labelVal, cum)
	fmt.Fprintf(sb, "%s_sum{%s=%q} %s\n", name, labelKey, labelVal, formatFloat(h.sum))
	fmt.Fprintf(sb, "%s_count{%s=%q} %d\n", name, labelKey, labelVal, h.count)
}
