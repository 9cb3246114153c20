package main

import (
	"fmt"
	"strconv"
	"strings"
)

// promSeries is one scrape of a Prometheus text exposition: the value
// of every series, keyed by the series exactly as printed (name plus
// label set, e.g. `hmmd_stage_seconds_sum{stage="run"}`).
type promSeries map[string]float64

// parseProm reads the text exposition format hmmd's /metrics emits.
// Comment and blank lines are skipped; a line that is not "series
// value" is an error, so a format change cannot silently zero a metric.
func parseProm(text string) (promSeries, error) {
	out := promSeries{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %v", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, nil
}

// scrapePair is the before/after scrapes of one process.
type scrapePair struct{ before, after promSeries }

// stageMeanMs is the mean time per observation, in milliseconds, that
// one hmmd_stage_seconds stage gained between the scrapes, pooled over
// the given processes.
func stageMeanMs(pairs []scrapePair, stage string) float64 {
	label := fmt.Sprintf("{stage=%q}", stage)
	return ratio(sumDelta(pairs, "hmmd_stage_seconds_sum"+label), sumDelta(pairs, "hmmd_stage_seconds_count"+label)) * 1e3
}

// sumDelta pools, over processes, after-before of one series. A series
// missing from a scrape reads 0: hmmd prints a stage only once it has
// been observed.
func sumDelta(pairs []scrapePair, series string) float64 {
	sum := 0.0
	for _, p := range pairs {
		sum += p.after[series] - p.before[series]
	}
	return sum
}

// sumDeltaPrefix pools, over processes, after-before of every series
// that starts with prefix: a whole labelled family such as
// hmmd_qos_sheds_total{...}.
func sumDeltaPrefix(pairs []scrapePair, prefix string) float64 {
	sum := 0.0
	for _, p := range pairs {
		for k, v := range p.after {
			if strings.HasPrefix(k, prefix) {
				sum += v - p.before[k]
			}
		}
	}
	return sum
}

// hitRatio is hits/(hits+misses) of two counters over the scrapes.
func hitRatio(pairs []scrapePair, hits, misses string) float64 {
	h := sumDelta(pairs, hits)
	return ratio(h, h+sumDelta(pairs, misses))
}

// workerBalance is the least over the most jobs any cluster worker
// completed between the coordinator's scrapes (1 = perfectly even, 0 =
// a worker got nothing or there is no cluster).
func workerBalance(coordinator []scrapePair) float64 {
	const prefix = "hmmd_cluster_worker_jobs_total{"
	lo, hi, seen := 0.0, 0.0, false
	for _, p := range coordinator {
		for k, v := range p.after {
			if !strings.HasPrefix(k, prefix) {
				continue
			}
			d := v - p.before[k]
			if !seen || d < lo {
				lo = d
			}
			if !seen || d > hi {
				hi = d
			}
			seen = true
		}
	}
	return ratio(lo, hi)
}
