package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"hypermm"
	"hypermm/internal/cluster"
	"hypermm/internal/obs"
	"hypermm/internal/qos"
)

// Typed scheduler errors, mapped to HTTP statuses by the handlers.
var (
	// ErrSaturated reports that the bounded queue is full (admission
	// control); the handlers answer 429.
	ErrSaturated = errors.New("server: scheduler saturated, try again later")
	// ErrDraining reports that the scheduler has stopped accepting work
	// for shutdown; the handlers answer 503.
	ErrDraining = errors.New("server: scheduler draining")
	// ErrQuota reports that the tenant's token bucket is in debt; the
	// handlers answer 429 with a Retry-After that pays the debt off.
	ErrQuota = errors.New("server: tenant quota exhausted")
	// ErrShed reports that a queued job was evicted to admit more
	// important work under overload; the handlers answer 429.
	ErrShed = errors.New("server: job shed under overload")
	// ErrInfeasible reports that the cost model predicts the job cannot
	// finish inside its own deadline, so it is refused up front instead
	// of burning a worker slot on a guaranteed 504.
	ErrInfeasible = errors.New("server: predicted time exceeds deadline")
)

// RetryAfterError decorates a rejection with how long the client
// should wait before retrying; the handlers surface it as a
// Retry-After header. Unwrap exposes the underlying rejection so
// errors.Is sees through the decoration.
type RetryAfterError struct {
	After time.Duration
	Err   error
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.Err, e.After.Round(time.Millisecond))
}

func (e *RetryAfterError) Unwrap() error { return e.Err }

// Job is one multiplication to execute on the simulated hypercube.
type Job struct {
	Plan   *Plan
	Cfg    hypermm.Config
	A, B   *hypermm.Matrix
	Trace  bool // capture a per-node timeline
	Verify bool // check against the serial product

	// QoS attribution. Tenant nil means "unattributed": Submit resolves
	// it to the registry's default tenant. Class orders the job across
	// tenants; EDFDeadline (simulated seconds, 0 = none) orders it
	// within the class; Cost is the predicted simulated run time the
	// tenant is charged (0 falls back to Plan.PredictedTime, then 1).
	Tenant      *qos.Tenant
	Class       qos.Class
	EDFDeadline float64
	Cost        float64
	// PreAdmitted marks a job whose quota was already debited upstream
	// (a coordinator forwarding to this worker), so the bucket is not
	// charged twice.
	PreAdmitted bool
}

// JobResult is the outcome of one executed Job.
type JobResult struct {
	Res   *hypermm.Result
	Trace *hypermm.Trace
	// Ratio is simulated elapsed time over the plan's predicted time —
	// the cost model's accuracy on this very job (0 when undefined).
	Ratio float64
	Wall  time.Duration
	Err   error
}

type task struct {
	ctx      context.Context
	job      Job
	done     chan *JobResult // buffered(1); worker posts exactly once
	enqueued time.Time       // when the task entered the queue
	qspan    *obs.Span       // queue-wait span; ended when a worker picks it up
}

// Scheduler is a bounded worker pool with QoS-aware admission: at most
// queueDepth jobs wait in a weighted-fair priority queue while workers
// execute. Submit is synchronous; Drain stops intake and finishes
// everything already admitted.
type Scheduler struct {
	stopped chan struct{} // closed when every worker has exited
	metrics *Metrics

	mu       sync.Mutex // guards queue, draining; cond is signalled under it
	cond     *sync.Cond // wakes workers on push, release, and drain
	queue    *qos.Queue
	draining bool

	// reg resolves tenants and holds their buckets and counters. It
	// defaults to a disabled registry (one default tenant, no quotas),
	// under which the queue degenerates to the pre-QoS FIFO; server.New
	// swaps in a configured registry.
	reg *qos.Registry

	// cluster, when non-nil, routes non-trace jobs to remote workers
	// instead of executing them here; the queue and worker pool still
	// bound how many cluster submissions are in flight. Trace jobs run
	// locally — per-node timelines don't travel the wire.
	cluster *cluster.Coordinator

	// tracer, when non-nil, wraps every pipeline stage — queue wait,
	// local run, cluster dispatch — in a span joined to the submitting
	// request's trace.
	tracer *obs.Tracer

	// onExec, when non-nil, runs at the start of every job execution.
	// Tests use it to hold a worker in place and make saturation and
	// drain scenarios deterministic; production leaves it nil.
	onExec func()
}

// NewScheduler starts workers goroutines consuming a priority queue of
// depth queueDepth (both forced to at least 1). Each job runs on a
// freshly built machine.
func NewScheduler(workers, queueDepth int, m *Metrics) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	s := &Scheduler{
		stopped: make(chan struct{}),
		metrics: m,
		queue:   qos.NewQueue(queueDepth),
		reg:     qos.NewRegistry(nil, nil),
	}
	s.cond = sync.NewCond(&s.mu)
	workerDone := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		go s.worker(workerDone)
	}
	go func() {
		for i := 0; i < workers; i++ {
			<-workerDone
		}
		close(s.stopped)
	}()
	return s
}

// worker loops popping the next eligible task. It exits once draining
// has begun and the queue is empty; a Pop that returns nil while not
// draining means every backlogged tenant is at its concurrency cap, so
// the worker waits for a Release.
func (s *Scheduler) worker(done chan<- struct{}) {
	defer func() { done <- struct{}{} }()
	for {
		s.mu.Lock()
		var it *qos.Item
		for {
			it = s.queue.Pop()
			if it != nil {
				break
			}
			if s.draining && s.queue.Len() == 0 {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
		}
		s.mu.Unlock()

		t := it.Payload.(*task)
		s.metrics.QueueAdd(-1)
		s.execute(t)

		s.mu.Lock()
		s.queue.Release(it.Tenant)
		s.mu.Unlock()
		// A Release can make a capped tenant eligible again; a finished
		// drain-era job can be the last thing holding other workers in
		// cond.Wait.
		s.cond.Broadcast()
	}
}

// Submit enqueues the job and waits for its result. It returns
// ErrDraining after Drain has begun; ErrQuota (wrapped in a
// RetryAfterError) when the tenant's token bucket is in debt;
// ErrSaturated when the queue is full and nothing queued is less
// important; and ctx.Err() if the caller gives up first (the job
// itself still runs to completion and is recorded in the metrics). A
// queued job can also fail with ErrShed if a more important arrival
// evicts it under overload.
func (s *Scheduler) Submit(ctx context.Context, job Job) (*JobResult, error) {
	admit := time.Now()
	if job.Tenant == nil {
		job.Tenant = s.reg.Default()
		job.Class = job.Tenant.Class
	}
	cost := job.Cost
	if cost <= 0 && job.Plan != nil {
		cost = job.Plan.PredictedTime
	}
	if cost <= 0 || math.IsInf(cost, 0) || math.IsNaN(cost) {
		cost = 1
	}

	// Quota: the predicted cost debits the tenant's bucket at admission.
	// Jobs forwarded by a coordinator arrive pre-admitted — their quota
	// was debited where the client connected.
	if s.reg.Enabled() && !job.PreAdmitted && job.Tenant.Bucket != nil {
		if ok, wait := job.Tenant.Bucket.Take(cost); !ok {
			job.Tenant.QuotaRejects.Add(1)
			s.metrics.Reject()
			return nil, &RetryAfterError{After: wait, Err: ErrQuota}
		}
	}

	t := &task{ctx: ctx, job: job, done: make(chan *JobResult, 1), enqueued: admit}
	// The queue span starts before the enqueue attempt: once the task is
	// in the queue a worker may read it concurrently, so every field is
	// final by then. A rejected task's span is simply never ended (and so
	// never recorded).
	t.ctx, t.qspan = s.tracer.StartSpan(ctx, "sched.queue",
		obs.String("tenant", job.Tenant.Name), obs.String("class", job.Class.String()))

	it := &qos.Item{
		Tenant: job.Tenant, Class: job.Class,
		Deadline: job.EDFDeadline, Cost: cost, Payload: t,
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	// Shedding only applies under a QoS config; without one a full queue
	// rejects the arrival, exactly the pre-QoS behavior.
	evicted, err := s.queue.Push(it, s.reg.Enabled())
	if err != nil {
		s.mu.Unlock()
		s.metrics.Reject()
		return nil, &RetryAfterError{After: s.drainEstimate(), Err: ErrSaturated}
	}
	s.metrics.QueueAdd(1)
	if evicted != nil {
		s.metrics.QueueAdd(-1)
	}
	s.mu.Unlock()
	s.cond.Broadcast()

	if evicted != nil {
		// The victim's submitter is parked on its done channel; fail it
		// there so the eviction surfaces as a 429, not a hang.
		v := evicted.Payload.(*task)
		v.job.Tenant.Sheds.Add(1)
		s.metrics.Reject()
		s.metrics.JobError("shed")
		v.done <- &JobResult{Err: &RetryAfterError{After: s.drainEstimate(), Err: ErrShed}}
	}
	s.metrics.StageObserve("admission", time.Since(admit))

	select {
	case r := <-t.done:
		if r.Err != nil {
			return r, r.Err
		}
		return r, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// drainEstimate predicts how long the current backlog needs to clear:
// the p50 job wall time times the queue depth, floored at one second.
// It is the Retry-After hint on saturation and shed rejections.
func (s *Scheduler) drainEstimate() time.Duration {
	p50 := s.metrics.LatencyQuantile(0.5)
	depth := float64(s.metrics.QueueDepth())
	if p50 <= 0 || depth <= 0 {
		return time.Second
	}
	d := time.Duration(p50 * depth * float64(time.Second))
	if d < time.Second {
		return time.Second
	}
	return d
}

// Registry exposes the tenant registry (never nil).
func (s *Scheduler) Registry() *qos.Registry { return s.reg }

// QoSStats snapshots per-tenant accounting with live queue depths
// overlaid.
func (s *Scheduler) QoSStats() []qos.TenantStats {
	stats := s.reg.Stats()
	s.mu.Lock()
	depths := s.queue.Depths()
	s.mu.Unlock()
	for i := range stats {
		d := depths[stats[i].Name]
		stats[i].Queued, stats[i].Inflight = d[0], d[1]
	}
	return stats
}

// Drain stops intake, lets the workers finish every admitted job, and
// waits for them (bounded by ctx). Safe to call more than once.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cond.Broadcast()
	select {
	case <-s.stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has begun.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// execute runs one task and posts its result.
func (s *Scheduler) execute(t *task) {
	t.qspan.End()
	queueWait := time.Since(t.enqueued)
	s.metrics.StageObserve("queue", queueWait)
	if err := t.ctx.Err(); err != nil {
		t.done <- &JobResult{Err: err}
		return
	}
	if s.onExec != nil {
		s.onExec()
	}
	s.metrics.InflightAdd(1)
	defer s.metrics.InflightAdd(-1)

	var (
		res *hypermm.Result
		tr  *hypermm.Trace
		err error
	)
	remote := s.cluster != nil && !t.job.Trace
	spanName, stage := "sched.run", "run"
	if remote {
		spanName, stage = "cluster.dispatch", "dispatch"
	}
	rctx, rspan := s.tracer.StartSpan(t.ctx, spanName,
		obs.String("algorithm", t.job.Plan.AlgorithmName),
		obs.Int("n", t.job.A.Rows), obs.Int("p", t.job.Cfg.P),
		obs.String("tenant", t.job.Tenant.Name),
		obs.String("class", t.job.Class.String()),
		obs.Float64("queue_wait_s", queueWait.Seconds()))
	// Taken after the span opens so the sim timeline, anchored to
	// [start, start+wall], always nests inside the rendered run span.
	start := time.Now()
	switch {
	case remote:
		res, err = s.cluster.SubmitMeta(rctx, cluster.JobMeta{
			Tenant:   t.job.Tenant.Name,
			Class:    t.job.Class.String(),
			Priority: int(t.job.Class),
		}, t.job.Plan.Algorithm, t.job.Cfg, t.job.A, t.job.B)
	case t.job.Trace:
		res, tr, err = hypermm.RunTraced(t.job.Plan.Algorithm, t.job.Cfg, t.job.A, t.job.B)
	default:
		res, err = hypermm.Run(t.job.Plan.Algorithm, t.job.Cfg, t.job.A, t.job.B)
	}
	wall := time.Since(start)
	rspan.Set(obs.Bool("ok", err == nil))
	rspan.End()
	s.metrics.StageObserve(stage, wall)
	if err == nil && tr != nil {
		// Anchor the simulated timeline of a traced run to the wall
		// interval it executed in, so the merged Chrome export can place
		// simulated node activity under the server spans.
		if sc, ok := obs.FromContext(rctx); ok && sc.Valid() {
			s.tracer.AttachSim(sc.TraceID, obs.SimTimeline{
				Events: tr.TimelineEvents(), Elapsed: res.Elapsed, P: t.job.Cfg.P,
				Start: start.UnixNano(), End: start.Add(wall).UnixNano(),
			})
		}
	}

	if err == nil && t.job.Verify {
		tol := 1e-8 * float64(t.job.A.Rows)
		if verr := hypermm.Verify(t.job.A, t.job.B, res.C, tol); verr != nil {
			err = verr
			s.metrics.JobError("verify")
		}
	} else if err != nil {
		s.metrics.JobError(errKind(err))
	}

	r := &JobResult{Res: res, Trace: tr, Wall: wall, Err: err}
	if err == nil {
		t.job.Tenant.Jobs.Add(1)
		if pt := t.job.Plan.PredictedTime; pt > 0 {
			r.Ratio = res.Elapsed / pt
		}
		s.metrics.JobDone(t.job.Plan.AlgorithmName, wall, r.Ratio)
	}
	t.done <- r
}

// errKind buckets a job error for the hmmd_job_errors_total metric.
func errKind(err error) string {
	switch {
	case errors.Is(err, ErrSaturated):
		return "saturated"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrQuota):
		return "quota"
	case errors.Is(err, ErrShed):
		return "shed"
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	case errors.Is(err, hypermm.ErrLinkDown):
		return "link_down"
	case errors.Is(err, hypermm.ErrDeadline):
		return "deadline"
	case errors.Is(err, cluster.ErrWorkerLost):
		return "worker_lost"
	case errors.Is(err, cluster.ErrNoWorkers):
		return "no_workers"
	case errors.Is(err, cluster.ErrBusy):
		return "cluster_busy"
	default:
		return "run"
	}
}
