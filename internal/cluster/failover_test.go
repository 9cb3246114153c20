package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"hypermm"
)

// fastCfg keeps failure-path tests snappy: aggressive probes and tiny
// backoffs.
func fastCfg() Config {
	return Config{
		ProbeInterval: 20 * time.Millisecond,
		ProbeMisses:   3,
		RetryBackoff:  time.Millisecond,
	}
}

// TestFailoverOnWorkerDeath is the kill-one-worker-mid-batch drill in
// miniature: the job lands on a worker that dies while holding it, and
// the coordinator must re-dispatch to the survivor and hand the client
// the correct result.
func TestFailoverOnWorkerDeath(t *testing.T) {
	started := make(chan struct{}, 1)
	returned := make(chan struct{})
	stuck := func(ctx context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
		started <- struct{}{}
		<-ctx.Done() // never answers; the connection death is the signal
		close(returned)
		return nil, ctx.Err()
	}
	coord, workers := testCluster(t, fastCfg(), stuck, LocalExec)

	A := hypermm.RandomMatrix(16, 16, 1)
	B := hypermm.RandomMatrix(16, 16, 2)
	local, err := hypermm.Run(hypermm.Cannon, testCfg, A, B)
	if err != nil {
		t.Fatal(err)
	}

	type answer struct {
		res *hypermm.Result
		err error
	}
	got := make(chan answer, 1)
	go func() {
		res, err := coord.Submit(context.Background(), hypermm.Cannon, testCfg, A, B)
		got <- answer{res, err}
	}()

	// Both workers start at load 0; the tie goes to the first
	// registration — the stuck one. Wait until it holds the job, then
	// kill it.
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never reached the stuck worker")
	}
	workers[0].Abort()

	var ans answer
	select {
	case ans = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("failover never completed")
	}
	if ans.err != nil {
		t.Fatalf("failover submit: %v", ans.err)
	}
	if ans.res.Elapsed != local.Elapsed || ans.res.Comm != local.Comm {
		t.Errorf("failover result diverged: %+v/%g vs local %+v/%g",
			ans.res.Comm, ans.res.Elapsed, local.Comm, local.Elapsed)
	}
	for i := range local.C.Data {
		if ans.res.C.Data[i] != local.C.Data[i] {
			t.Fatalf("failover product word %d differs", i)
		}
	}
	st := coord.Stats()
	if st.Failovers < 1 {
		t.Errorf("no failover recorded: %+v", st)
	}
	if len(st.Workers) != 1 {
		t.Errorf("dead worker still registered: %+v", st.Workers)
	}
	// The job's context is the connection's: dropping the connection
	// cancels the job it carried.
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Error("the stuck job outlived its aborted connection")
	}
}

// TestProbeDetectsSilentWorker kills a worker that holds no job; the
// health probe alone must notice and deregister it.
func TestProbeDetectsSilentWorker(t *testing.T) {
	coord, workers := testCluster(t, fastCfg(), LocalExec, LocalExec)
	workers[1].Abort()
	deadline := time.Now().Add(5 * time.Second)
	for coord.WorkerCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("probe never noticed the dead worker (count %d)", coord.WorkerCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainRefusesNewJobsWhileInflightFinish pins the drain contract:
// once Drain begins, new Submits are refused with ErrDraining, but the
// job already in flight completes normally and Drain waits for it.
func TestDrainRefusesNewJobsWhileInflightFinish(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	gated := func(ctx context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
		started <- struct{}{}
		<-release
		return hypermm.Run(alg, cfg, A, B)
	}
	coord, _ := testCluster(t, fastCfg(), gated)

	A := hypermm.RandomMatrix(8, 8, 1)
	B := hypermm.RandomMatrix(8, 8, 2)
	cfg := hypermm.Config{P: 4, Ports: hypermm.OnePort, Ts: 150, Tw: 3}

	inflight := make(chan error, 1)
	go func() {
		_, err := coord.Submit(context.Background(), hypermm.Cannon, cfg, A, B)
		inflight <- err
	}()
	<-started

	drained := make(chan error, 1)
	go func() { drained <- coord.Drain(context.Background()) }()

	// Wait for the drain flag, then verify new work is refused.
	deadline := time.Now().Add(5 * time.Second)
	for !coord.Stats().Draining {
		if time.Now().After(deadline) {
			t.Fatal("drain flag never set")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := coord.Submit(context.Background(), hypermm.Cannon, cfg, A, B); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: got %v, want ErrDraining", err)
	}

	select {
	case err := <-drained:
		t.Fatalf("drain finished before the in-flight job did: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight job failed during drain: %v", err)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain never finished")
	}
}

// TestDrainRefusesNewWorkers: a draining coordinator refuses fresh
// registrations with a reason.
func TestDrainRefusesNewWorkers(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, 1)
	gated := func(ctx context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return hypermm.Run(alg, cfg, A, B)
	}
	coord, _ := testCluster(t, fastCfg(), gated)
	A := hypermm.RandomMatrix(8, 8, 1)
	go coord.Submit(context.Background(), hypermm.Cannon, hypermm.Config{P: 4, Ts: 1, Tw: 1}, A, A)
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	go coord.Drain(context.Background())
	deadline := time.Now().Add(5 * time.Second)
	for !coord.Stats().Draining {
		if time.Now().After(deadline) {
			t.Fatal("drain flag never set")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := Join(ctx, coord.Addr().String(), WorkerConfig{Name: "late", Exec: LocalExec})
	if err == nil {
		t.Fatal("draining coordinator accepted a new worker")
	}
}

// TestBreakerOpensSkipsAndRecovers drives one worker's breaker through
// its whole lifecycle: consecutive abnormal answers open it, an open
// breaker removes the worker from routing, and after the cooldown a
// half-open trial with a now-healthy executor closes it again.
func TestBreakerOpensSkipsAndRecovers(t *testing.T) {
	var sick atomic.Bool
	sick.Store(true)
	flaky := func(ctx context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
		if sick.Load() {
			return nil, errors.New("executor wedged")
		}
		return hypermm.Run(alg, cfg, A, B)
	}
	cfg := fastCfg()
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 60 * time.Millisecond
	coord, _ := testCluster(t, cfg, flaky)

	A := hypermm.RandomMatrix(8, 8, 1)
	B := hypermm.RandomMatrix(8, 8, 2)
	jcfg := hypermm.Config{P: 4, Ports: hypermm.OnePort, Ts: 150, Tw: 3}

	// Two abnormal answers reach the threshold; each surfaces to the
	// caller as a plain remote error (kindRun is not retryable).
	for i := 0; i < 2; i++ {
		if _, err := coord.Submit(context.Background(), hypermm.Cannon, jcfg, A, B); err == nil {
			t.Fatal("sick worker produced a result")
		}
	}
	if st := coord.Stats(); len(st.Workers) != 1 || st.Workers[0].Breaker != BreakerOpen {
		t.Fatalf("breaker not open after %d failures: %+v", 2, st.Workers)
	}

	// While open (cooldown not yet expired) the worker is unroutable.
	if _, err := coord.Submit(context.Background(), hypermm.Cannon, jcfg, A, B); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("open breaker still routable: %v", err)
	}

	// Past the cooldown, a half-open trial runs on the recovered
	// executor and closes the breaker.
	sick.Store(false)
	time.Sleep(cfg.BreakerCooldown + 20*time.Millisecond)
	res, err := coord.Submit(context.Background(), hypermm.Cannon, jcfg, A, B)
	if err != nil {
		t.Fatalf("half-open trial failed: %v", err)
	}
	local, _ := hypermm.Run(hypermm.Cannon, jcfg, A, B)
	if res.Elapsed != local.Elapsed {
		t.Error("post-recovery result diverged")
	}
	if st := coord.Stats(); st.Workers[0].Breaker != BreakerClosed {
		t.Fatalf("breaker not closed after successful trial: %+v", st.Workers)
	}
}

// TestBreakerShieldsHealthyWorker: with one sick and one healthy
// worker, opening the sick one's breaker must route everything to the
// healthy one.
func TestBreakerShieldsHealthyWorker(t *testing.T) {
	sick := func(ctx context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
		return nil, errors.New("executor wedged")
	}
	cfg := fastCfg()
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour // never half-opens during the test
	coord, _ := testCluster(t, cfg, sick, LocalExec)

	A := hypermm.RandomMatrix(8, 8, 1)
	B := hypermm.RandomMatrix(8, 8, 2)
	jcfg := hypermm.Config{P: 4, Ports: hypermm.OnePort, Ts: 150, Tw: 3}

	// Serial submits alternate onto the sick worker (ties go to the
	// older registration) until its breaker opens; after that every
	// job must land on the healthy one.
	failures := 0
	for i := 0; i < 10; i++ {
		if _, err := coord.Submit(context.Background(), hypermm.Cannon, jcfg, A, B); err != nil {
			failures++
		}
	}
	if failures == 0 || failures > int(cfg.BreakerThreshold) {
		t.Fatalf("breaker admitted %d failures, want 1..%d", failures, cfg.BreakerThreshold)
	}
	st := coord.Stats()
	if st.Workers[0].Breaker != BreakerOpen {
		t.Errorf("sick worker breaker %q, want open", st.Workers[0].Breaker)
	}
	if st.Workers[1].Jobs < int64(10-failures) {
		t.Errorf("healthy worker completed %d jobs, want %d", st.Workers[1].Jobs, 10-failures)
	}
}

// TestWorkerStopDrains: Worker.Stop finishes the in-flight job, flushes
// its result, and only then hangs up — the caller sees a clean answer,
// not a failover.
func TestWorkerStopDrains(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	gated := func(ctx context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
		started <- struct{}{}
		<-release
		return hypermm.Run(alg, cfg, A, B)
	}
	coord, workers := testCluster(t, fastCfg(), gated)
	A := hypermm.RandomMatrix(8, 8, 1)
	jcfg := hypermm.Config{P: 4, Ports: hypermm.OnePort, Ts: 150, Tw: 3}

	got := make(chan error, 1)
	go func() {
		_, err := coord.Submit(context.Background(), hypermm.Cannon, jcfg, A, A)
		got <- err
	}()
	<-started

	stopped := make(chan error, 1)
	go func() { stopped <- workers[0].Stop(context.Background()) }()
	time.Sleep(20 * time.Millisecond) // let the goodbye land
	close(release)

	if err := <-got; err != nil {
		t.Fatalf("job failed during worker drain: %v", err)
	}
	if err := <-stopped; err != nil {
		t.Fatalf("worker stop: %v", err)
	}
	if st := coord.Stats(); st.Failovers != 0 {
		t.Errorf("graceful worker drain caused %d failovers", st.Failovers)
	}
}

// TestRetryBudgetExhausted: when every worker dies and none return, the
// submit fails with a wrapped ErrWorkerLost after the retry budget.
func TestRetryBudgetExhausted(t *testing.T) {
	started := make(chan struct{}, 4)
	stuck := func(ctx context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	cfg := fastCfg()
	cfg.MaxRetries = 1
	coord, workers := testCluster(t, cfg, stuck)
	A := hypermm.RandomMatrix(8, 8, 1)
	jcfg := hypermm.Config{P: 4, Ports: hypermm.OnePort, Ts: 150, Tw: 3}

	got := make(chan error, 1)
	go func() {
		_, err := coord.Submit(context.Background(), hypermm.Cannon, jcfg, A, A)
		got <- err
	}()
	<-started
	workers[0].Abort()

	select {
	case err := <-got:
		if !errors.Is(err, ErrWorkerLost) {
			t.Fatalf("got %v, want wrapped ErrWorkerLost", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("submit never failed")
	}
	if fmt.Sprint(coord.Stats().Failovers) == "0" {
		t.Error("no failover counted")
	}
}
