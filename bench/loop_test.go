package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestAnalyse(t *testing.T) {
	msd := time.Millisecond
	window := 10 * time.Second
	samples := []sample{
		{End: -time.Second, Lat: 9 * msd, OK: true}, // warm-up: ignored
		{End: 1 * time.Second, Lat: 3 * msd, OK: true},
		{End: 2 * time.Second, Lat: 1 * msd, OK: true},
		{End: 3 * time.Second, Lat: 50 * msd, OK: false}, // failed: attempted, but no latency and no rate
		{End: 5 * time.Second, Lat: 40 * msd, Kind: 1, OK: true},
		{End: window, Lat: 9 * msd, OK: true}, // completed after the window closed
	}
	st := analyse(samples, window, 3)
	if st.attempted != 4 || st.failed != 1 || st.samples != 3 {
		t.Errorf("attempted %d failed %d samples %d, want 4, 1 and 3", st.attempted, st.failed, st.samples)
	}
	// Kind 0's median is 2 ms, kind 1's 40 ms, kind 2 never ran.
	if st.p50 != 21 {
		t.Errorf("p50 = %v, want 21 (mean of the kinds' medians)", st.p50)
	}
	if want := percentile([]float64{1, 3, 40}, 0.95); st.p95 != want {
		t.Errorf("p95 = %v, want %v over all jobs", st.p95, want)
	}
	// Slices of 2 s hold 1, 1, 1, 0, 0 successes: the median rate is 0.5/s.
	if st.reqPerS != 0.5 {
		t.Errorf("req/s = %v, want 0.5", st.reqPerS)
	}
}

// Two equally frequent kinds in separate clusters: the pooled median
// flips between the clusters on a hair, the typical median does not.
func TestTypicalMedianIsSteadyAcrossClusters(t *testing.T) {
	fast, slow := []float64{1.0, 1.1, 1.2}, []float64{10, 11, 12}
	a := typicalMedian([][]float64{fast, slow})
	b := typicalMedian([][]float64{append([]float64{0.9}, fast...), slow}) // one more fast job
	if a != 6.05 || b < 6.0 || b > 6.1 {
		t.Errorf("typical medians %v and %v, want both about 6.05", a, b)
	}
	if got := typicalMedian([][]float64{nil, nil}); got != 0 {
		t.Errorf("typical median of nothing = %v, want 0", got)
	}
}

func TestTraceOverhead(t *testing.T) {
	msd := time.Millisecond
	var samples []sample
	// Two kinds with very different cycles; tracing adds 10% to each.
	for i := 0; i < 10; i++ {
		end := time.Duration(i) * time.Second
		samples = append(samples,
			sample{End: end, Kind: 0, OK: true, Cycle: 10 * msd},
			sample{End: end, Kind: 0, OK: true, Cycle: 11 * msd, Traced: true},
			sample{End: end, Kind: 1, OK: true, Cycle: 100 * msd},
			sample{End: end, Kind: 1, OK: true, Cycle: 110 * msd, Traced: true},
		)
	}
	// Ignored: a failed job, a client's last job, warm-up, and a kind seen untraced only.
	samples = append(samples,
		sample{End: 1, Kind: 0, OK: false, Cycle: time.Hour, Traced: true},
		sample{End: 1, Kind: 0, OK: true, Traced: true},
		sample{End: -1, Kind: 0, OK: true, Cycle: time.Hour},
		sample{End: 1, Kind: 2, OK: true, Cycle: time.Hour},
	)
	got := traceOverhead(samples, time.Minute, 3)
	if want := 1 - 110.0/121.0; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("trace overhead = %v, want %v", got, want)
	}
	if got := traceOverhead(nil, time.Minute, 3); got != 0 {
		t.Errorf("overhead of nothing = %v, want 0", got)
	}
}

// The loop is closed: a client never has two jobs in flight, stops
// issuing when the window closes, and traces alternate blocks.
func TestRunLoopClosed(t *testing.T) {
	var inflight [2]atomic.Int32
	var rec recorder
	lp := loopPlan{clients: 2, warmup: 10 * time.Millisecond, window: 60 * time.Millisecond, traceBlock: 2}
	samples, t0 := runLoop(context.Background(), lp, &rec, "test", func(int) string { return "k" },
		func(client, seq int) (int, bool) {
			if inflight[client].Add(1) != 1 {
				t.Errorf("client %d has two jobs in flight", client)
			}
			time.Sleep(time.Millisecond)
			inflight[client].Add(-1)
			return seq % 3, seq%5 != 4
		})
	if len(samples) < 10 {
		t.Fatalf("only %d samples", len(samples))
	}
	if time.Since(t0) < lp.window {
		t.Error("loop returned before the window closed")
	}
	traced, warm := 0, 0
	for i, s := range samples {
		if i > 0 && s.End < samples[i-1].End {
			t.Fatal("samples are not in completion order")
		}
		if s.End-s.Lat >= lp.window {
			t.Errorf("job started %v after the window closed", s.End-s.Lat-lp.window)
		}
		if s.End < 0 {
			warm++
		}
		if s.Traced {
			traced++
		}
	}
	if warm == 0 {
		t.Error("no warm-up samples")
	}
	if traced == 0 || traced == len(samples) {
		t.Errorf("%d of %d samples traced; want alternate blocks", traced, len(samples))
	}
	if len(rec.spans) != traced {
		t.Errorf("%d spans for %d traced jobs", len(rec.spans), traced)
	}
}

func TestRunLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	lp := loopPlan{clients: 1, window: time.Hour}
	done := make(chan struct{})
	go func() {
		defer close(done)
		runLoop(ctx, lp, nil, "", nil, func(int, int) (int, bool) { time.Sleep(time.Millisecond); return 0, true })
	}()
	cancel()
	<-done // the test's timeout catches a loop that ignores cancellation
}
