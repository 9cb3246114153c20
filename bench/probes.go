package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"hypermm"
	"hypermm/internal/cluster"
	"hypermm/internal/matrix"
	"hypermm/internal/obs"
	"hypermm/internal/qos"
	"hypermm/internal/server"
)

// Layer probes time one layer's public functions directly, with fixed
// inputs that do not depend on the workload, so a layer no workload
// isolates (the planner, the QoS queue, span recording, the region
// map) still has a figure that a change to it moves.

// perOp runs fn in batches until minDur has passed and returns the mean
// time of one call.
func perOp(minDur time.Duration, batch int, fn func()) time.Duration {
	fn() // first call pays one-off allocation
	start := time.Now()
	n := 0
	for time.Since(start) < minDur {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
	}
	return time.Since(start) / time.Duration(n)
}

// probeGEMM measures matrix.MulAdd on square blocks with the kernel's
// own goroutine pool off, so the rate is one core's.
func probeGEMM() gemmRates {
	prev := matrix.SetParallelism(1)
	defer matrix.SetParallelism(prev)
	g := gemmRates{blocks: []int{64, 128, 256}}
	for _, n := range g.blocks {
		a, b, c := matrix.Random(n, n, 1), matrix.Random(n, n, 2), matrix.New(n, n)
		d := perOp(120*time.Millisecond, 1, func() { matrix.MulAdd(c, a, b) })
		g.gflops = append(g.gflops, float64(matrix.MulFlops(n, n, n))/d.Seconds()/1e9)
	}
	return g
}

// probePlanner times Planner.Plan on a cached and on an uncached key.
func probePlanner() (hitUs, missUs float64, err error) {
	pl := server.NewPlanner(1 << 16)
	req := server.PlanRequest{N: 48, P: 64, Ts: paramTs, Tw: paramTw, Tc: paramTc, Ports: hypermm.OnePort}
	if _, err := pl.Plan(req); err != nil {
		return 0, 0, err
	}
	hit := perOp(30*time.Millisecond, 100, func() { _, err = pl.Plan(req) })
	if err != nil {
		return 0, 0, err
	}
	n := 64.0
	miss := perOp(30*time.Millisecond, 10, func() {
		n++ // a fresh n is a fresh cache key
		r := req
		r.N = n
		_, err = pl.Plan(r)
	})
	if err != nil {
		return 0, 0, err
	}
	return float64(hit) / 1e3, float64(miss) / 1e3, nil
}

// probeQoS times one Push+Pop+Release on a qos.Queue held at depth 64
// by four tenants in all three classes, and one Bucket.Take.
func probeQoS() (pushPopNs, bucketTakeNs float64, err error) {
	cfg := &qos.Config{Version: qos.ConfigVersion, Tenants: map[string]qos.TenantSpec{
		"t0": {Weight: 1, Class: "interactive"}, "t1": {Weight: 2, Class: "interactive"},
		"t2": {Weight: 3, Class: "interactive"}, "t3": {Weight: 4, Class: "interactive"},
	}}
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	tenants := qos.NewRegistry(cfg, nil).Tenants()
	q := qos.NewQueue(128)
	i := 0
	item := func() *qos.Item {
		i++
		return &qos.Item{Tenant: tenants[i%len(tenants)], Class: qos.Class(i % 3), Cost: float64(1 + i%7)}
	}
	for q.Len() < 64 {
		if _, err := q.Push(item(), true); err != nil {
			return 0, 0, err
		}
	}
	pp := perOp(30*time.Millisecond, 100, func() {
		if _, perr := q.Push(item(), true); perr != nil {
			err = perr
		}
		if it := q.Pop(); it != nil {
			q.Release(it.Tenant)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	bucket := qos.NewBucket(1e12, 1e12, nil) // never runs dry: the success path is what admission pays
	bt := perOp(30*time.Millisecond, 100, func() { bucket.Take(1) })
	return float64(pp), float64(bt), nil
}

// probeSpan times Tracer.StartSpan+End, the cost hmmd pays per stage.
func probeSpan() float64 {
	tr := obs.NewTracer("bench", 256)
	ctx := context.Background()
	return float64(perOp(30*time.Millisecond, 100, func() {
		_, sp := tr.StartSpan(ctx, "probe")
		sp.End()
	}))
}

// collectiveProbe is the result of probeCollectives.
type collectiveProbe struct {
	ms            map[hypermm.Collective]float64 // host time of one MeasuredCollective call (two emulator runs)
	nsPerWord     float64                        // all-gather: host ns per word delivered
	table1MaxRelE float64                        // worst |measured/Table 1 - 1| over both coefficients
}

// Subcube size and message length of the collective probes: the p=64
// point where ROADMAP anomaly 1(d) was seen.
const (
	collN = 64
	collM = 96
)

// probeCollectives times the Table 1 patterns on a 64-node subcube and
// checks their measured coefficients against the paper's.
func probeCollectives() (collectiveProbe, error) {
	out := collectiveProbe{ms: map[hypermm.Collective]float64{}}
	for _, c := range []hypermm.Collective{hypermm.OneToAllBcast, hypermm.AllToAllBcast, hypermm.AllToAllReduce, hypermm.AllToAllPersonalized} {
		var a, b float64
		var err error
		med, merr := medianOf(3, func(int) (time.Duration, error) {
			start := time.Now()
			a, b, err = hypermm.MeasuredCollective(c, collN, collM, hypermm.OnePort)
			return time.Since(start), err
		})
		if merr != nil {
			return out, fmt.Errorf("collective %v: %w", c, merr)
		}
		out.ms[c] = med
		wantA, wantB := hypermm.CollectiveCost(c, collN, collM, hypermm.OnePort)
		for _, e := range []float64{a/wantA - 1, b/wantB - 1} {
			out.table1MaxRelE = math.Max(out.table1MaxRelE, math.Abs(e))
		}
	}
	// Each of the two runs delivers every node's M words to the N-1 others.
	words := 2.0 * collN * (collN - 1) * collM
	out.nsPerWord = out.ms[hypermm.AllToAllBcast] * 1e6 / words
	return out, nil
}

// probeRegionMap times the Figure 13 panel A map (one-port, t_s=150).
func probeRegionMap() float64 {
	d := perOp(30*time.Millisecond, 1, func() {
		hypermm.RegionMap(hypermm.OnePort, paramTs, paramTw, 5, 13, 48, 3, 18, 24)
	})
	return ms(d)
}

// probeClusterRTT measures what the cluster tier adds to one job: the
// median Coordinator.Submit latency to in-process LocalExec workers
// (which run hypermm.Run) minus the median of hypermm.Run itself.
func probeClusterRTT(ctx context.Context, workers int) (overheadMs float64, err error) {
	coord, err := cluster.NewCoordinator(cluster.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		return 0, err
	}
	defer coord.Close()
	for i := 0; i < workers; i++ {
		w, err := cluster.Join(ctx, coord.Addr().String(), cluster.WorkerConfig{
			Name: fmt.Sprintf("probe-w%d", i), Exec: cluster.LocalExec,
		})
		if err != nil {
			return 0, err
		}
		served := make(chan struct{})
		go func() {
			_ = w.Serve(ctx) // ends when Abort below closes the connection
			close(served)
		}()
		defer func() {
			w.Abort()
			<-served
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for coord.WorkerCount() != workers {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("cluster probe: %d of %d workers joined", coord.WorkerCount(), workers)
		}
		time.Sleep(time.Millisecond)
	}
	a, b := hypermm.RandomMatrix(64, 64, 1), hypermm.RandomMatrix(64, 64, 2)
	cfg := hypermm.Config{P: 16, Ports: hypermm.OnePort, Ts: paramTs, Tw: paramTw, Tc: paramTc}
	const reps = 30
	direct, err := medianOf(reps, func(int) (time.Duration, error) {
		start := time.Now()
		_, err := hypermm.Run(hypermm.Cannon, cfg, a, b)
		return time.Since(start), err
	})
	if err != nil {
		return 0, err
	}
	viaCluster, err := medianOf(reps, func(int) (time.Duration, error) {
		start := time.Now()
		_, err := coord.Submit(ctx, hypermm.Cannon, cfg, a, b)
		return time.Since(start), err
	})
	if err != nil {
		return 0, err
	}
	return selfTime(viaCluster, direct), nil
}
