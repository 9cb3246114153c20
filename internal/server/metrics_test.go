package server

import (
	"math"
	"strings"
	"testing"
	"time"

	"hypermm/internal/cluster"
)

func TestMetricsRender(t *testing.T) {
	m := NewMetrics()
	m.QueueAdd(3)
	m.InflightAdd(1)
	m.JobDone("3dall", 2*time.Millisecond, 1.02)
	m.JobDone("3dall", 4*time.Millisecond, 0.98)
	m.JobDone("cannon", 100*time.Millisecond, 1.3)
	m.Reject()
	m.Reject()
	m.JobError("link_down")

	m.SetCalibrationLoaded(true)
	cl := &cluster.Stats{
		Workers: []cluster.WorkerStats{
			{ID: 1, Name: "w0", Jobs: 9, Inflight: 1, Breaker: cluster.BreakerClosed},
			{ID: 2, Name: "w1", Jobs: 4, Breaker: cluster.BreakerOpen},
			{ID: 3, Name: "w2", Draining: true, Breaker: cluster.BreakerClosed},
		},
		Dispatched: 15, Completed: 13, Failovers: 1, BusyRetries: 2,
	}
	out := m.Render(7, 2, 5, cl, nil)
	for _, want := range []string{
		"hmmd_queue_depth 3",
		"hmmd_inflight_jobs 1",
		`hmmd_jobs_total{algorithm="3dall"} 2`,
		`hmmd_jobs_total{algorithm="cannon"} 1`,
		"hmmd_rejects_total 2",
		`hmmd_job_errors_total{kind="link_down"} 1`,
		"hmmd_plan_cache_hits_total 7",
		"hmmd_plan_cache_misses_total 2",
		"hmmd_plan_cache_entries 5",
		"hmmd_calibration_loaded 1",
		"hmmd_job_latency_seconds_count 3",
		`hmmd_job_latency_quantile_seconds{q="0.5"}`,
		`hmmd_job_latency_quantile_seconds{q="0.99"}`,
		"hmmd_sim_predicted_ratio_count 3",
		`hmmd_sim_predicted_ratio_bucket{le="+Inf"} 3`,
		"hmmd_cluster_workers 2", // the draining worker is not live
		"hmmd_cluster_dispatches_total 15",
		"hmmd_cluster_completed_total 13",
		"hmmd_cluster_failovers_total 1",
		"hmmd_cluster_busy_retries_total 2",
		`hmmd_cluster_worker_jobs_total{worker="w0"} 9`,
		`hmmd_cluster_worker_inflight{worker="w0"} 1`,
		`hmmd_cluster_worker_breaker_open{worker="w0"} 0`,
		`hmmd_cluster_worker_breaker_open{worker="w1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}

	// Every job runs on a fresh machine: no machine-pool family.
	if strings.Contains(out, "hmmd_machine_pool") {
		t.Error("metrics output still renders a machine-pool series")
	}
	// Standalone serving renders no cluster family at all.
	if plain := m.Render(7, 2, 5, nil, nil); strings.Contains(plain, "hmmd_cluster_") {
		t.Error("nil cluster stats still rendered a cluster metric")
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 100} {
		h.Observe(v)
	}
	var sb strings.Builder
	h.render(&sb, "x", "test")
	out := sb.String()
	for _, want := range []string{
		`x_bucket{le="1"} 1`,
		`x_bucket{le="2"} 3`,
		`x_bucket{le="4"} 4`,
		`x_bucket{le="+Inf"} 5`,
		"x_count 5",
		"x_sum 106.7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram output missing %q\n%s", want, out)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	// 100 samples uniform over (0, 4]: the median lands near 2.
	for i := 1; i <= 100; i++ {
		h.Observe(4 * float64(i) / 100)
	}
	if q := h.Quantile(0.5); math.Abs(q-2) > 0.3 {
		t.Errorf("p50 = %g, want ~2", q)
	}
	if q := h.Quantile(0.99); q < 3 || q > 4 {
		t.Errorf("p99 = %g, want in (3, 4]", q)
	}
	// Observations beyond the last bound clamp to it.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(50)
	if q := h2.Quantile(0.5); q != 2 {
		t.Errorf("overflow quantile = %g, want last bound 2", q)
	}
}
