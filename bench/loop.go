package main

import (
	"context"
	"sort"
	"sync"
	"time"
)

// sample is one job of the closed loop. The emu-large child prints its
// samples as JSON for the parent, hence the short keys.
type sample struct {
	End    time.Duration `json:"e"` // completion, as an offset from the start of the measured window (negative: warm-up)
	Lat    time.Duration `json:"l"` // host latency of the job
	Kind   int           `json:"k"` // index into the workload's kinds
	OK     bool          `json:"ok"`
	Traced bool          `json:"t,omitempty"` // a client span was recorded for it
	// Cycle is the time from this job's start to the same client's next
	// start: the latency plus whatever the generator did in between,
	// span recording included (0 for a client's last job).
	Cycle time.Duration `json:"c,omitempty"`
}

// loopPlan shapes one closed-loop run: each client sends its next job
// only when the previous one has completed.
type loopPlan struct {
	clients int
	warmup  time.Duration // jobs run but are not measured
	window  time.Duration // the measured window
	// traceBlock, when positive, records a client span for every job in
	// alternate blocks of that many jobs per client. A block is one pass
	// through the workload's schedule, so traced and untraced jobs are
	// the same mix of kinds, and alternating this finely keeps drift of
	// the machine out of the comparison.
	traceBlock int
}

// jobFunc performs one job for a client; seq counts that client's jobs
// from 0. It reports which kind it ran and whether the job succeeded
// and its output was correct.
type jobFunc func(client, seq int) (kind int, ok bool)

// runLoop drives the closed loop and returns every job that completed,
// in completion order, with the instant the measured window began. It
// stops early when ctx is cancelled.
func runLoop(ctx context.Context, lp loopPlan, rec *recorder, process string, kindLabel func(int) string, do jobFunc) ([]sample, time.Time) {
	per := make([][]sample, lp.clients)
	t0 := time.Now().Add(lp.warmup) // start of the measured window
	stop := t0.Add(lp.window)
	var wg sync.WaitGroup
	for c := 0; c < lp.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; ctx.Err() == nil; seq++ {
				start := time.Now()
				if n := len(per[c]); n > 0 {
					per[c][n-1].Cycle = start.Sub(t0) - (per[c][n-1].End - per[c][n-1].Lat)
				}
				if !start.Before(stop) {
					return
				}
				traced := lp.traceBlock > 0 && (seq/lp.traceBlock)%2 == 1
				kind, ok := do(c, seq)
				end := time.Now()
				per[c] = append(per[c], sample{End: end.Sub(t0), Lat: end.Sub(start), Kind: kind, OK: ok, Traced: traced})
				if traced {
					rec.add(span{name: "client." + kindLabel(kind), process: process, trace: rec.newID(),
						start: start.UnixNano(), end: end.UnixNano(),
						attrs: map[string]any{"client": c, "ok": ok}})
				}
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].End < all[j].End })
	return all, t0
}

// rateSlices is how many slices the measured window is cut into for
// req_per_s; the median slice rate is reported, so one stalled slice
// (a GC cycle, a noisy neighbour) does not move the figure.
const rateSlices = 5

// loopStats are the figures read off one measured window.
type loopStats struct {
	attempted int     // jobs that completed inside the window
	failed    int     // of those, the ones that failed or were wrong
	samples   int     // correct jobs: the sample behind the rate and the latencies
	reqPerS   float64 // median slice rate of correct jobs
	p50       float64 // ms; see typicalMedian
	p95       float64 // ms; 95th percentile over all correct jobs
}

// analyse reduces the samples of one window over a workload of the
// given number of kinds. Jobs that completed during warm-up or after
// the window closed are left out.
func analyse(samples []sample, window time.Duration, kinds int) loopStats {
	var st loopStats
	var ends []time.Duration
	var all []float64
	perKind := make([][]float64, kinds)
	for _, s := range samples {
		if s.End < 0 || s.End >= window {
			continue
		}
		st.attempted++
		if !s.OK {
			st.failed++ // a failed job is missing from the rate and the latencies
			continue
		}
		ends = append(ends, s.End)
		all = append(all, ms(s.Lat))
		perKind[s.Kind] = append(perKind[s.Kind], ms(s.Lat))
	}
	sort.Float64s(all)
	st.samples = len(all)
	st.reqPerS = median(sliceRates(ends, window, rateSlices))
	st.p50 = typicalMedian(perKind)
	st.p95 = percentile(all, 0.95)
	return st
}

// typicalMedian is the median latency of a job of the workload: the
// mean, over the kinds, of each kind's median. Every kind is equally
// frequent in the schedule, but their latencies form separate clusters
// (a p=8 job takes a fifth of a p=64 job), and the median of the pooled
// sample sits in the gap between two clusters, where a 1 % shift in
// either moves it by 20 %. Each kind's own median is steady.
func typicalMedian(perKind [][]float64) float64 {
	sum, n := 0.0, 0
	for _, lat := range perKind {
		if len(lat) > 0 {
			sum += median(lat)
			n++
		}
	}
	return ratio(sum, float64(n))
}

// traceOverhead is the share of throughput that recording client spans
// costs: 1 - untraced cycle / traced cycle, where a cycle is the mean
// time a client spends per job, summed over the kinds so that each
// kind is compared with itself. A kind missing on either side is left
// out; with nothing to compare the overhead reads 0.
func traceOverhead(samples []sample, window time.Duration, kinds int) float64 {
	type acc struct {
		sum time.Duration
		n   int
	}
	cycles := make([][2]acc, kinds) // per kind: untraced, traced
	for _, s := range samples {
		if !s.OK || s.Cycle <= 0 || s.End < 0 || s.End >= window {
			continue
		}
		side := 0
		if s.Traced {
			side = 1
		}
		cycles[s.Kind][side].sum += s.Cycle
		cycles[s.Kind][side].n++
	}
	var untraced, traced float64
	for _, c := range cycles {
		if c[0].n == 0 || c[1].n == 0 {
			continue
		}
		untraced += c[0].sum.Seconds() / float64(c[0].n)
		traced += c[1].sum.Seconds() / float64(c[1].n)
	}
	if traced == 0 {
		return 0
	}
	return 1 - untraced/traced
}
