package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"hypermm"
)

// setupCycles is how many cold starts one end-to-end run times; setup_s
// is their median.
const setupCycles = 7

// Warm-up before each measured window. The daemons' pools, plan caches
// and connections are already filled by the verified requests of
// set-up; the warm-up lets the Go runtimes reach a steady heap.
const (
	warmupEndToEnd = 2 * time.Second
	warmupTraced   = time.Second
)

// workloadResult is everything one pass over one workload produced.
type workloadResult struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Samples   int                    `json:"latency_samples,omitempty"` // successful jobs behind the percentiles
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// perShape picks, for each distinct shape, the value its kinds
// reported (kinds of one shape differ only in tenant or cold/warm and
// must agree). A shape nobody answered correctly is an error.
func (pl *plan) perShape(vals []float64) ([]float64, error) {
	var out []float64
	for _, first := range pl.distinctShapes() {
		v := 0.0
		for i := first; i < len(pl.kinds); i++ {
			if !pl.sameShape(first, i) || vals[i] == 0 {
				continue
			}
			if v != 0 && vals[i] != v {
				return nil, fmt.Errorf("%s and %s disagree: %v vs %v", pl.kinds[first].label, pl.kinds[i].label, v, vals[i])
			}
			v = vals[i]
		}
		if v == 0 {
			return nil, fmt.Errorf("no correct job of shape %s", pl.kinds[first].label)
		}
		out = append(out, v)
	}
	return out, nil
}

// verifyAll sends every kind once and fully checks the reply: the last
// step of a cold start.
func verifyAll(g *httpGen) error {
	for i := range g.pl.kinds {
		if err := g.send(0, i, true); err != nil {
			return fmt.Errorf("set-up request %s: %w", g.pl.kinds[i].label, err)
		}
	}
	return nil
}

// coldStart times exec of the prebuilt daemon(s) to the first correct
// reply for every kind, and leaves the system running.
func (e env) coldStart(ctx context.Context, pl *plan) (*sut, time.Duration, error) {
	start := time.Now()
	s, err := e.start(ctx, pl.w)
	if err != nil {
		return nil, 0, err
	}
	g := newHTTPGen(pl, s.url)
	defer g.close()
	if err := verifyAll(g); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// runEndToEnd is the untraced pass: setupCycles cold starts, a warm-up
// and one measured window of closed-loop load.
func (e env) runEndToEnd(ctx context.Context, pl *plan, window time.Duration) (*workloadResult, error) {
	lp := loopPlan{clients: pl.w.clients(), warmup: warmupEndToEnd, window: window}
	var (
		setups  []float64
		samples []sample
		tl      tally
		rssMB   float64
	)
	if pl.w.topo == emulator {
		for i := 0; i < setupCycles-1; i++ {
			ready, _, err := e.emuChild(ctx, pl, loopPlan{})
			if err != nil {
				return nil, err
			}
			setups = append(setups, ready.Seconds())
		}
		ready, rep, err := e.emuChild(ctx, pl, lp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ready.Seconds())
		samples, tl, rssMB = rep.Samples, rep.Tally, rep.PeakRSSMB
	} else {
		var s *sut
		defer func() {
			if s != nil {
				s.stop()
			}
		}()
		for i := 0; i < setupCycles; i++ {
			if s != nil {
				s.stop()
			}
			var d time.Duration
			var err error
			if s, d, err = e.coldStart(ctx, pl); err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		g := newHTTPGen(pl, s.url)
		defer g.close()
		samples, _ = runLoop(ctx, lp, nil, "", nil, g.job)
		u, err := readUsage(s.pids())
		if err != nil {
			return nil, err
		}
		tl, rssMB = g.total(), u.peakRSSMB
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	st := analyse(samples, window, len(pl.kinds))
	res := &workloadResult{Attempted: st.attempted, Failed: st.failed, Samples: st.samples}
	if st.attempted == 0 {
		return nil, errors.New("no job completed inside the window")
	}
	if !tailSupported(st.samples, 0.95) {
		fmt.Fprintf(os.Stderr, "bench: %s: only %d samples; p95 has fewer than %d beyond it\n",
			pl.w.name, st.samples, minTailSamples)
	}
	elapsed, err := pl.perShape(tl.Elapsed)
	if err != nil {
		return nil, err
	}
	ratios, err := pl.perShape(tl.ModelRatio)
	if err != nil {
		return nil, err
	}
	simTime, modelErr := 0.0, 0.0
	for i := range elapsed {
		simTime += elapsed[i]
		modelErr = math.Max(modelErr, math.Abs(ratios[i]-1))
	}
	res.EndToEnd, err = withUnits(endToEnd, map[string]float64{
		"req_per_s":      st.reqPerS,
		"latency_p50_ms": st.p50,
		"latency_p95_ms": st.p95,
		"setup_s":        median(setups),
		"peak_rss_mb":    rssMB,
		"sim_time":       simTime,
		"model_err_max":  modelErr,
	})
	return res, err
}

// The traced pass splits its --seconds between a window of load, in
// which alternate passes through the schedule are traced, and the
// in-process ladder; the fixed layer probes take about two more seconds.
const (
	tracedWindowShare = 0.5
	tracedLadderShare = 0.2
)

// windowObs is what the traced window showed from outside the program.
type windowObs struct {
	samples        []sample
	tl             tally
	sutCPU, genCPU time.Duration // CPU the program and this generator spent over the window
	// Before/after scrapes of /metrics: of the HTTP front end (the daemon
	// or the coordinator) and of the processes that execute runs (the
	// daemon or the workers). Empty on emu-large.
	front, exec []scrapePair
	// emu-large only, from the child's own runtime.
	childAllocsPerRun float64
	childGoroutines   int
}

// tracedWindow starts the system under test, drives the closed loop
// with alternate passes traced, and reads /metrics and /proc on either
// side of it.
func (e env) tracedWindow(ctx context.Context, pl *plan, lp loopPlan, rec *recorder) (*windowObs, error) {
	o := &windowObs{}
	self := os.Getpid()
	gen0, err := procCPU(self)
	if err != nil {
		return nil, err
	}
	if pl.w.topo == emulator {
		_, rep, err := e.emuChild(ctx, pl, lp)
		if err != nil {
			return nil, err
		}
		o.samples, o.tl, o.sutCPU = rep.Samples, rep.Tally, rep.CPU
		o.childAllocsPerRun = ratio(float64(rep.Mallocs), float64(len(rep.Samples)))
		o.childGoroutines = rep.GoroutinesIdle
		// The child recorded its own client spans to pay their cost; the
		// parent rebuilds them from the samples for the trace file.
		for _, s := range rep.Samples {
			if s.Traced {
				end := rep.T0 + int64(s.End)
				rec.add(span{name: "client." + pl.label(s.Kind), process: "emu-large child", trace: rec.newID(),
					start: end - int64(s.Lat), end: end, attrs: map[string]any{"ok": s.OK}})
			}
		}
	} else {
		s, _, err := e.coldStart(ctx, pl)
		if err != nil {
			return nil, err
		}
		defer s.stop() // before the probes and the ladder take the CPUs
		scrapeAll := func() ([]promSeries, error) {
			out := make([]promSeries, len(s.procs))
			for i, p := range s.procs {
				if out[i], err = scrape("http://" + p.addr); err != nil {
					return nil, err
				}
			}
			return out, nil
		}
		before, err := scrapeAll()
		if err != nil {
			return nil, err
		}
		u0, err := readUsage(s.pids())
		if err != nil {
			return nil, err
		}
		g := newHTTPGen(pl, s.url)
		defer g.close()
		o.samples, _ = runLoop(ctx, lp, rec, "generator", pl.label, g.job)
		u1, err := readUsage(s.pids())
		if err != nil {
			return nil, err
		}
		after, err := scrapeAll()
		if err != nil {
			return nil, err
		}
		pairs := make([]scrapePair, len(s.procs))
		for i := range pairs {
			pairs[i] = scrapePair{before[i], after[i]}
		}
		o.tl, o.sutCPU = g.total(), u1.cpu-u0.cpu
		o.front, o.exec = pairs[:1], pairs[:1]
		if pl.w.topo == clustered {
			o.exec = pairs[1:]
		}
	}
	gen1, err := procCPU(self)
	if err != nil {
		return nil, err
	}
	o.genCPU = gen1 - gen0
	return o, ctx.Err()
}

// runTraced is the traced pass: per-layer metrics only, never a gate.
func (e env) runTraced(ctx context.Context, pl *plan, seconds time.Duration, rec *recorder) (*workloadResult, error) {
	window := time.Duration(float64(seconds) * tracedWindowShare)
	lp := loopPlan{clients: pl.w.clients(), warmup: warmupTraced, window: window, traceBlock: len(pl.order)}
	o, err := e.tracedWindow(ctx, pl, lp, rec)
	if err != nil {
		return nil, err
	}

	// Every completed job lies between the scrapes, warm-up included, so
	// per-request figures divide by all of them.
	res := &workloadResult{}
	okLat := 0.0
	for _, s := range o.samples {
		res.Attempted++
		if s.OK {
			okLat += ms(s.Lat)
		} else {
			res.Failed++
		}
	}
	tl, front, exec := o.tl, o.front, o.exec
	jobs := float64(tl.Jobs)
	if jobs == 0 {
		return nil, errors.New("traced window: no correct job")
	}
	m := map[string]float64{}
	m["bench.trace_overhead"] = traceOverhead(o.samples, window, len(pl.kinds))
	m["process.cpu_ms_per_req"] = ms(o.sutCPU) / jobs
	m["process.gen_cpu_share"] = ratio(o.genCPU.Seconds(), (o.genCPU + o.sutCPU).Seconds())
	m["simnet.msgs_per_req"] = float64(tl.Msgs) / jobs
	m["simnet.words_per_req"] = float64(tl.Words) / jobs
	m["simnet.startups_per_req"] = float64(tl.Startups) / jobs
	m["matrix.flops_per_req"] = float64(tl.Flops) / jobs
	m["server.req_bytes"] = float64(tl.ReqBytes) / jobs
	m["server.resp_bytes"] = float64(tl.RespBytes) / jobs

	// hmmd's own stage histograms and counters, differenced over the
	// window. Where a workload has no such tier (no daemon on emu-large,
	// no cluster on serve-*) the series are absent and read 0, except
	// that on emu-large the run stage is the job itself.
	m["server.handler_ms"] = stageMeanMs(front, "handler")
	m["server.plan_ms"] = stageMeanMs(front, "plan")
	m["scheduler.admission_us"] = stageMeanMs(front, "admission") * 1e3
	m["scheduler.queue_wait_ms"] = stageMeanMs(front, "queue")
	m["cluster.dispatch_ms"] = stageMeanMs(front, "dispatch")
	m["pool.checkout_us"] = stageMeanMs(exec, "pool_checkout") * 1e3
	m["simnet.run_ms"] = stageMeanMs(exec, "run")
	if pl.w.topo == emulator {
		m["simnet.run_ms"] = okLat / jobs
	}
	m["planner.cache_hit_ratio"] = hitRatio(front, "hmmd_plan_cache_hits_total", "hmmd_plan_cache_misses_total")
	m["pool.hit_ratio"] = hitRatio(exec, "hmmd_machine_pool_hits_total", "hmmd_machine_pool_misses_total")
	m["qos.quota_rejects"] = sumDeltaPrefix(front, "hmmd_qos_quota_rejects_total{")
	m["qos.sheds"] = sumDeltaPrefix(front, "hmmd_qos_sheds_total{")
	m["cluster.failovers"] = sumDelta(front, "hmmd_cluster_failovers_total")
	m["cluster.busy_retries"] = sumDelta(front, "hmmd_cluster_busy_retries_total")
	m["cluster.worker_balance"] = workerBalance(front)
	m["cluster.bytes_per_job"] = 0
	if pl.w.topo == clustered {
		bytes := 0.0
		for _, k := range pl.kinds {
			bytes += 3 * 8 * float64(k.n*k.n) // A and B out, C back: computed from n
		}
		m["cluster.bytes_per_job"] = bytes / float64(len(pl.kinds))
	}

	// Fixed layer probes.
	rates := probeGEMM()
	for i, b := range rates.blocks {
		m[fmt.Sprintf("matrix.gflops_b%d", b)] = rates.gflops[i]
	}
	planHitUs, planMissUs, err := probePlanner()
	if err != nil {
		return nil, err
	}
	m["planner.plan_hit_us"], m["planner.plan_miss_us"] = planHitUs, planMissUs
	if m["qos.push_pop_ns"], m["qos.bucket_take_ns"], err = probeQoS(); err != nil {
		return nil, err
	}
	m["obs.span_ns"] = probeSpan()
	coll, err := probeCollectives()
	if err != nil {
		return nil, err
	}
	m["collective.bcast_p64_ms"] = coll.ms[hypermm.OneToAllBcast]
	m["collective.allgather_p64_ms"] = coll.ms[hypermm.AllToAllBcast]
	m["collective.reducescatter_p64_ms"] = coll.ms[hypermm.AllToAllReduce]
	m["collective.alltoall_p64_ms"] = coll.ms[hypermm.AllToAllPersonalized]
	m["collective.allgather_host_ns_per_word"] = coll.nsPerWord
	m["collective.table1_max_rel_err"] = coll.table1MaxRelE
	m["cost.regionmap_ms"] = probeRegionMap()
	if m["cluster.rtt_overhead_ms"], err = probeClusterRTT(ctx, 1); err != nil {
		return nil, err
	}
	if m["cluster.rtt_overhead_2w_ms"], err = probeClusterRTT(ctx, 2); err != nil {
		return nil, err
	}

	// The entry-point ladder.
	lad, err := e.runLadder(ctx, pl, time.Duration(float64(seconds)*tracedLadderShare), rates, rec)
	if err != nil {
		return nil, err
	}
	r := lad.mean
	m["server.http_self_ms"] = selfTime(r.http, r.handler)
	m["server.codec_self_ms"] = selfTime(r.handler, r.execute)
	m["server.allocs_per_req"] = lad.handlerAllocs
	m["server.alloc_bytes_per_req"] = lad.handlerBytes
	m["scheduler.self_ms"] = selfTime(r.execute, r.runon+planHitUs/1e3)
	m["pool.warm_gain_ms"] = r.run - r.runon
	m["simnet.run_cold_ms"] = r.run
	m["simnet.run_warm_ms"] = r.runon
	m["simnet.host_ns_per_msg"] = ratio(selfTime(r.runon, r.kernelWall)*1e6, r.msgs)
	m["simnet.allocs_per_run"] = lad.runAllocs
	m["simnet.goroutines_idle"] = float64(lad.goroutinesIdle)
	if pl.w.topo == emulator {
		m["scheduler.self_ms"] = 0 // no scheduler between the caller and the pool
		m["simnet.allocs_per_run"] = o.childAllocsPerRun
		m["simnet.goroutines_idle"] = float64(o.childGoroutines)
	}
	// Computed, not measured in the run: the kernel's CPU time at the
	// probed single-core rate over the CPU time the program spent per job.
	m["matrix.kernel_share"] = ratio(r.kernelCPU, m["process.cpu_ms_per_req"])

	res.PerLayer, err = withUnits(perLayer, m)
	return res, err
}
