package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"hypermm"
)

// emu-large has no daemon. The benchmark re-executes itself as a child
// that is both the caller and the system under test: one goroutine
// calling hypermm.Run (cold) and MachinePool.RunOn (warm) in a closed
// loop. A separate process gives the workload its own cold start, peak
// memory and CPU time, as the daemons have.

// childReady is the line the child prints once every kind has run and
// verified once; the parent stops the set-up clock on it.
const childReady = "ready"

// childReport is the child's last line of output.
type childReport struct {
	Samples        []sample      `json:"samples"`
	T0             int64         `json:"t0_unix_nano"` // start of the measured window
	Tally          tally         `json:"tally"`
	CPU            time.Duration `json:"cpu"` // process CPU spent between loop start and end
	PeakRSSMB      float64       `json:"peak_rss_mb"`
	Mallocs        uint64        `json:"mallocs"`         // heap objects allocated by the loop
	GoroutinesIdle int           `json:"goroutines_idle"` // after the loop, pool warm
}

// emuTol is the bound hypermm.Verify checks each kind's first product
// against, scaled by n like the daemon's own verify option.
const emuTol = 1e-8

// runChild is the child's main. It prints childReady after set-up and,
// when lp.window is positive, one childReport after the loop.
func runChild(ctx context.Context, pl *plan, lp loopPlan, out io.Writer) error {
	pool := hypermm.NewMachinePool(len(pl.kinds))
	defer pool.Close()
	run := func(k *kind) (*hypermm.Result, error) {
		if k.warm {
			return pool.RunOn(k.alg, k.cfg, k.a, k.b)
		}
		return hypermm.Run(k.alg, k.cfg, k.a, k.b)
	}
	predicted := make([]float64, len(pl.kinds))
	for i := range pl.kinds {
		k := &pl.kinds[i]
		res, err := run(k)
		if err != nil {
			return fmt.Errorf("%s: %w", k.label, err)
		}
		if err := hypermm.Verify(k.a, k.b, res.C, emuTol*float64(k.n)); err != nil {
			return fmt.Errorf("%s: %w", k.label, err)
		}
		k.elapsed = res.Elapsed
		pt, ok := hypermm.TotalTime(k.alg, float64(k.n), float64(k.p), paramTs, paramTw, paramTc, k.ports)
		if !ok || pt <= 0 {
			return fmt.Errorf("%s: cost model has no prediction", k.label)
		}
		predicted[i] = pt
	}
	if _, err := fmt.Fprintln(out, childReady); err != nil {
		return err
	}
	if lp.window <= 0 {
		return nil
	}

	tl := newTally(len(pl.kinds))
	job := func(_, seq int) (int, bool) {
		kind := pl.kindFor(0, 1, seq)
		k := &pl.kinds[kind]
		res, err := run(k)
		if err != nil || res.Elapsed != k.elapsed {
			return kind, false
		}
		tl.Elapsed[kind], tl.ModelRatio[kind] = res.Elapsed, res.Elapsed/predicted[kind]
		tl.Jobs++
		tl.Msgs += res.Comm.Msgs
		tl.Words += res.Comm.Words
		tl.Startups += res.Comm.Startups
		tl.Flops += res.Comm.Flops
		return kind, true
	}
	var rec recorder
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		return err
	}
	samples, t0 := runLoop(ctx, lp, &rec, "emu-large", pl.label, job)
	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	rss, err := procPeakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(childReport{
		Samples: samples, T0: t0.UnixNano(), Tally: tl,
		CPU: cpu1 - cpu0, PeakRSSMB: rss,
		Mallocs: m1.Mallocs - m0.Mallocs, GoroutinesIdle: runtime.NumGoroutine(),
	})
}

// emuChild starts the child for one plan. ready is how long the child
// took from exec to its ready line; report is nil when lp.window is 0.
func (e env) emuChild(ctx context.Context, pl *plan, lp loopPlan) (ready time.Duration, report *childReport, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return 0, nil, err
	}
	defer pr.Close()
	start := time.Now()
	p, err := spawn("child", filepath.Join(e.outDir, "emu-large-child.log"), pw,
		self, "-child", "-workload", pl.w.name, "-seed", strconv.FormatInt(pl.seed, 10),
		"-warmup", lp.warmup.String(), "-window", lp.window.String(),
		"-trace-block", strconv.Itoa(lp.traceBlock))
	pw.Close() // the child holds its own copy
	if err != nil {
		return 0, nil, err
	}
	defer p.stop(time.Second)
	go func() { // a cancelled run must not wait for the child's loop to finish
		select {
		case <-ctx.Done():
			pr.Close()
		case <-p.done:
		}
	}()

	sc := bufio.NewScanner(pr)
	sc.Buffer(nil, 64<<20) // the report carries every sample
	if !sc.Scan() || sc.Text() != childReady {
		return 0, nil, fmt.Errorf("emu-large child failed before it was ready (see %s)", p.log.Name())
	}
	ready = time.Since(start)
	if lp.window <= 0 {
		<-p.done
		return ready, nil, nil
	}
	if !sc.Scan() {
		return 0, nil, errors.Join(errors.New("emu-large child ended without a report"), sc.Err(), ctx.Err())
	}
	report = new(childReport)
	if err := json.Unmarshal(sc.Bytes(), report); err != nil {
		return 0, nil, fmt.Errorf("emu-large child report: %w", err)
	}
	<-p.done
	return ready, report, nil
}
