package main

import (
	"math"
	"testing"
)

const scrapeBefore = `# HELP hmmd_queue_depth Jobs waiting in the scheduler queue.
# TYPE hmmd_queue_depth gauge
hmmd_queue_depth 0
hmmd_plan_cache_hits_total 10
hmmd_plan_cache_misses_total 6
hmmd_cluster_worker_jobs_total{worker="w1"} 5
hmmd_cluster_worker_jobs_total{worker="w 2"} 5
hmmd_qos_sheds_total{tenant="ta"} 1
hmmd_qos_sheds_total{tenant="tb"} 0
hmmd_stage_seconds_bucket{stage="run",le="0.001"} 3
hmmd_stage_seconds_sum{stage="run"} 0.5
hmmd_stage_seconds_count{stage="run"} 100
`

const scrapeAfter = `hmmd_queue_depth 1
hmmd_plan_cache_hits_total 100
hmmd_plan_cache_misses_total 16
hmmd_cluster_worker_jobs_total{worker="w1"} 45
hmmd_cluster_worker_jobs_total{worker="w 2"} 55
hmmd_qos_sheds_total{tenant="ta"} 1
hmmd_qos_sheds_total{tenant="tb"} 3
hmmd_stage_seconds_sum{stage="run"} 2.5
hmmd_stage_seconds_count{stage="run"} 1100
hmmd_stage_seconds_sum{stage="dispatch"} 0.25
hmmd_stage_seconds_count{stage="dispatch"} 50
hmmd_job_latency_seconds_bucket{le="+Inf"} 7
`

func mustParse(t *testing.T, text string) promSeries {
	t.Helper()
	p, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParsePromAndDiffs(t *testing.T) {
	before, after := mustParse(t, scrapeBefore), mustParse(t, scrapeAfter)
	if got := before[`hmmd_cluster_worker_jobs_total{worker="w 2"}`]; got != 5 {
		t.Errorf("label value with a space: got %v, want 5", got)
	}
	if got := after[`hmmd_job_latency_seconds_bucket{le="+Inf"}`]; got != 7 {
		t.Errorf("+Inf bucket: got %v, want 7", got)
	}
	pairs := []scrapePair{{before, after}}

	// 2 s over 1000 runs between the scrapes.
	if got := stageMeanMs(pairs, "run"); math.Abs(got-2) > 1e-9 {
		t.Errorf("run stage mean = %v ms, want 2", got)
	}
	// A stage first observed after the first scrape counts from zero.
	if got := stageMeanMs(pairs, "dispatch"); math.Abs(got-5) > 1e-9 {
		t.Errorf("dispatch stage mean = %v ms, want 5", got)
	}
	// A stage never observed reads 0, not NaN.
	if got := stageMeanMs(pairs, "queue"); got != 0 {
		t.Errorf("unobserved stage mean = %v, want 0", got)
	}
	// Pooling two processes weights by observations.
	two := []scrapePair{{before, after}, {promSeries{}, promSeries{
		`hmmd_stage_seconds_sum{stage="run"}`: 8, `hmmd_stage_seconds_count{stage="run"}`: 1000}}}
	if got := stageMeanMs(two, "run"); math.Abs(got-5) > 1e-9 {
		t.Errorf("pooled run stage mean = %v ms, want 5", got)
	}
	if got := hitRatio(pairs, "hmmd_plan_cache_hits_total", "hmmd_plan_cache_misses_total"); got != 0.9 {
		t.Errorf("hit ratio = %v, want 0.9", got)
	}
	if got := sumDeltaPrefix(pairs, "hmmd_qos_sheds_total{"); got != 3 {
		t.Errorf("sheds = %v, want 3", got)
	}
	if got := workerBalance(pairs); got != 0.8 {
		t.Errorf("worker balance = %v, want 0.8 (40 vs 50 jobs)", got)
	}
	if got := workerBalance(nil); got != 0 {
		t.Errorf("worker balance without workers = %v, want 0", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"novalue\n", "hmmd_x abc\n"} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}
