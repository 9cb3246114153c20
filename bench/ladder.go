package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"hypermm"
	"hypermm/internal/matrix"
	"hypermm/internal/qos"
	"hypermm/internal/server"
)

// The entry-point ladder replays each distinct shape of a workload, one
// request at a time and in this process, through successively lower
// entry points of the program:
//
//	http     net/http loopback POST to an in-process server
//	handler  Handler().ServeHTTP on a recorder (no sockets)
//	execute  Server.Execute (no codec; planner + scheduler + pool + run)
//	runon    MachinePool.RunOn (a warm machine)
//	kernel   matrix.MulAdd on one probe block; the run's kernel time is
//	         computed from its flop count at the probed rate
//
// and, beside runon, the cold alternative
//
//	run      hypermm.Run (builds the machine first)
//
// Every call is a span whose parent is the rung above it in the same
// replay, and a rung's self time is its span minus the rung below.
// emu-large has no server, so its ladder starts at runon.

// rungs holds one time per rung, in milliseconds.
type rungs struct {
	http, handler, execute, runon, run float64
	kernelCPU                          float64 // computed: flops / probed rate
	kernelWall                         float64 // computed: kernelCPU spread over the cores the nodes can use
	msgs                               float64 // messages of one run
}

// add accumulates another shape's rungs.
func (r *rungs) add(o rungs) {
	r.http += o.http
	r.handler += o.handler
	r.execute += o.execute
	r.runon += o.runon
	r.run += o.run
	r.kernelCPU += o.kernelCPU
	r.kernelWall += o.kernelWall
	r.msgs += o.msgs
}

// ladderResult is what the ladder measured for one workload.
type ladderResult struct {
	mean           rungs   // mean over the workload's distinct shapes of the per-shape medians
	handlerAllocs  float64 // heap objects per handler-rung request
	handlerBytes   float64 // heap bytes per handler-rung request
	runAllocs      float64 // heap objects per warm run
	goroutinesIdle int     // goroutines in this process after the ladder, pool warm
}

// gemmRates is the single-thread rate of matrix.MulAdd on square blocks.
type gemmRates struct {
	blocks []int
	gflops []float64
}

// nearest returns the probed block size closest (in ratio) to b and
// its rate.
func (g gemmRates) nearest(b float64) (block int, gflops float64) {
	best := math.Inf(1)
	for i, blk := range g.blocks {
		if d := math.Abs(math.Log(float64(blk) / b)); d < best {
			best, block, gflops = d, blk, g.gflops[i]
		}
	}
	return block, gflops
}

// medianOf times fn reps times and returns the median in milliseconds.
// fn receives the replay index.
func medianOf(reps int, fn func(i int) (time.Duration, error)) (float64, error) {
	ds := make([]float64, reps)
	for i := range ds {
		d, err := fn(i)
		if err != nil {
			return 0, err
		}
		ds[i] = ms(d)
	}
	return median(ds), nil
}

// runLadder replays every distinct shape of the plan within roughly
// budget and records the spans in rec.
func (e env) runLadder(ctx context.Context, pl *plan, budget time.Duration, rates gemmRates, rec *recorder) (ladderResult, error) {
	var out ladderResult
	served := pl.w.topo != emulator

	var (
		srv  *server.Server
		ts   *httptest.Server
		hcli *http.Client
	)
	if served {
		cfg := server.Config{Workers: genClients}
		if pl.w.topo == clustered {
			// The in-process ladder has no cluster tier (the RTT probe
			// covers it) but resolves tenants under the same policy.
			q, err := qos.Load(e.qos)
			if err != nil {
				return out, err
			}
			cfg.QoS = q
		}
		var err error
		if srv, err = server.New(cfg); err != nil {
			return out, err
		}
		ts = httptest.NewServer(srv.Handler())
		hcli = ts.Client()
		defer func() {
			ts.Close()
			dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = srv.Drain(dctx) // nothing is in flight; a timeout here only leaks idle goroutines of a process about to exit
			cancel()
		}()
	}
	pool := hypermm.NewMachinePool(len(pl.kinds))
	defer pool.Close()

	shapes := pl.distinctShapes()
	slot := budget / time.Duration(len(shapes))
	nRungs := 3
	if served {
		nRungs = 6
	}
	var handlerReqs, warmRuns, handlerMallocs, handlerBytes, runMallocs uint64
	for _, ki := range shapes {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		k := &pl.kinds[ki]
		check := func(res *hypermm.Result, err error) error {
			if err != nil {
				return fmt.Errorf("ladder %s: %w", k.label, err)
			}
			if k.elapsed != 0 && res.Elapsed != k.elapsed {
				return fmt.Errorf("ladder %s: simulated elapsed %v, want %v", k.label, res.Elapsed, k.elapsed)
			}
			return nil
		}
		post := func() error {
			req, err := k.newRequest(ts.URL + "/v1/matmul")
			if err != nil {
				return err
			}
			resp, err := hcli.Do(req)
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("ladder %s: status %d", k.label, resp.StatusCode)
			}
			return err
		}

		// Pilot: one call of the top rung warms every cache below it and
		// sizes the number of replays to the time slot.
		pilot := time.Now()
		var first *hypermm.Result
		var err error
		if served {
			err = post()
		} else {
			first, err = pool.RunOn(k.alg, k.cfg, k.a, k.b)
			if err == nil {
				k.elapsed = first.Elapsed // emu-large: the parent made no local run during set-up
			}
		}
		if err != nil {
			return out, err
		}
		reps := int(slot / (time.Since(pilot)*time.Duration(nRungs) + 1))
		reps = max(3, min(reps, 64))

		traces := make([]uint64, reps)
		parent := make([]uint64, reps) // span of the rung above, per replay
		for i := range traces {
			traces[i] = rec.newID()
		}
		rung := func(name string, fn func() error) (float64, error) {
			return medianOf(reps, func(i int) (time.Duration, error) {
				var err error
				id, d := rec.timed("ladder."+name+"."+k.label, "ladder", traces[i], parent[i], nil, func() { err = fn() })
				if name != "run" { // the cold alternative is not a rung of its own
					parent[i] = id
				}
				return d, err
			})
		}

		var r rungs
		var m0, m1 runtime.MemStats
		if served {
			if r.http, err = rung("http", post); err != nil {
				return out, err
			}
			h := srv.Handler()
			runtime.ReadMemStats(&m0)
			r.handler, err = rung("handler", func() error {
				req := httptest.NewRequest(http.MethodPost, "/v1/matmul", bytes.NewReader(k.body))
				if k.tenant != "" {
					req.Header.Set("X-Tenant", k.tenant)
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					return fmt.Errorf("ladder %s: handler status %d", k.label, w.Code)
				}
				return nil
			})
			if err != nil {
				return out, err
			}
			runtime.ReadMemStats(&m1)
			handlerReqs += uint64(reps)
			handlerMallocs += m1.Mallocs - m0.Mallocs
			handlerBytes += m1.TotalAlloc - m0.TotalAlloc
			r.execute, err = rung("execute", func() error {
				return check(srv.Execute(ctx, k.alg, k.cfg, k.a, k.b))
			})
			if err != nil {
				return out, err
			}
		}
		// run goes first and leaves parent alone, so that run and runon
		// are siblings under the execute span.
		r.run, err = rung("run", func() error {
			return check(hypermm.Run(k.alg, k.cfg, k.a, k.b))
		})
		if err != nil {
			return out, err
		}
		runtime.ReadMemStats(&m0)
		var last *hypermm.Result
		r.runon, err = rung("runon", func() error {
			res, err := pool.RunOn(k.alg, k.cfg, k.a, k.b)
			last = res
			return check(res, err)
		})
		if err != nil {
			return out, err
		}
		runtime.ReadMemStats(&m1)
		warmRuns += uint64(reps)
		runMallocs += m1.Mallocs - m0.Mallocs

		// Kernel: a run's flops at the rate probed for blocks of about
		// the size each node multiplies. Computed, not measured inside
		// the run; the span is one real MulAdd on the probe block.
		side := float64(k.n) / math.Cbrt(float64(k.p))
		block, gf := rates.nearest(side)
		r.msgs = float64(last.Comm.Msgs)
		r.kernelCPU = float64(last.Comm.Flops) / (gf * 1e9) * 1e3
		r.kernelWall = r.kernelCPU / float64(min(runtime.GOMAXPROCS(0), k.p))
		a, b, c := matrix.Random(block, block, 1), matrix.Random(block, block, 2), matrix.New(block, block)
		attrs := map[string]any{"block": block, "gflops": gf, "computed_kernel_ms": r.kernelCPU}
		for i := range traces {
			rec.timed("ladder.kernel."+k.label, "ladder", traces[i], parent[i], attrs, func() { matrix.MulAdd(c, a, b) })
		}

		// Each shape weighs 1/len(shapes) in the mean, as in the schedule.
		n := float64(len(shapes))
		out.mean.add(rungs{
			http: r.http / n, handler: r.handler / n, execute: r.execute / n,
			runon: r.runon / n, run: r.run / n,
			kernelCPU: r.kernelCPU / n, kernelWall: r.kernelWall / n, msgs: r.msgs / n,
		})
	}
	out.handlerAllocs = ratio(float64(handlerMallocs), float64(handlerReqs))
	out.handlerBytes = ratio(float64(handlerBytes), float64(handlerReqs))
	out.runAllocs = ratio(float64(runMallocs), float64(warmRuns))
	out.goroutinesIdle = runtime.NumGoroutine()
	return out, nil
}
