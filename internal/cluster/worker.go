package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"hypermm"
	"hypermm/internal/obs"
)

// ErrBusy is how a worker's Exec hook reports transient saturation
// (bounded queue full, local drain begun): the coordinator retries the
// job on another worker instead of failing the client.
var ErrBusy = errors.New("cluster: worker busy")

// ExecFunc executes one multiplication on behalf of the cluster. It has
// the shape of hypermm.Run plus a context carrying the job's wall-clock
// budget; LocalExec is the direct adapter.
type ExecFunc func(ctx context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error)

// ExecMetaFunc is ExecFunc plus the job's QoS attribution, for workers
// that account executions per tenant.
type ExecMetaFunc func(ctx context.Context, meta JobMeta, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error)

// LocalExec runs the job in-process on a fresh machine — the reference
// executor the conformance oracle and the tests use.
var LocalExec ExecFunc = func(_ context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
	return hypermm.Run(alg, cfg, A, B)
}

// WorkerConfig configures one worker connection.
type WorkerConfig struct {
	Name string // advertised in the handshake and in coordinator stats

	// Exec executes jobs; required unless ExecMeta is set.
	Exec ExecFunc

	// ExecMeta, when set, takes precedence over Exec and additionally
	// receives the job's QoS attribution from the wire.
	ExecMeta ExecMetaFunc

	// MaxN / MaxP advertise the worker's size limits in the handshake
	// (0: unbounded). The worker also enforces them on incoming jobs.
	MaxN, MaxP int

	// MaxFrame bounds one received frame (default DefaultMaxFrame).
	MaxFrame int

	// Log receives connection-lifecycle events as structured records
	// (nil: silent).
	Log *slog.Logger

	// Tracer, when non-nil, records one worker.execute span per job that
	// arrives carrying a valid trace context; the spans travel back to
	// the coordinator in the Result frame.
	Tracer *obs.Tracer
}

// Worker is the worker side of one coordinator connection: it
// registers via the handshake, then executes the jobs multiplexed down
// the connection, answering each with a Result frame.
type Worker struct {
	cfg  WorkerConfig
	conn net.Conn
	br   *bufio.Reader
	id   uint64
	// ctx parents every job's context; closeConn cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	wmu sync.Mutex // serializes frame writes

	mu       sync.Mutex
	inflight int
	draining bool
	closed   bool
	wg       sync.WaitGroup // in-flight job goroutines
}

// Join dials the coordinator and performs the registration handshake.
// The returned Worker is idle until Serve runs its read loop.
func Join(ctx context.Context, addr string, cfg WorkerConfig) (*Worker, error) {
	if cfg.Exec == nil && cfg.ExecMeta == nil {
		return nil, errors.New("cluster: WorkerConfig.Exec or ExecMeta is required")
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: joining %s: %w", addr, err)
	}
	w := &Worker{cfg: cfg, conn: conn, br: bufio.NewReader(conn)}
	deadline := time.Now().Add(10 * time.Second)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	_ = conn.SetDeadline(deadline)
	h := hello{
		Version: ProtocolVersion, Name: cfg.Name,
		Capabilities: []string{CapMatmul},
		MaxN:         cfg.MaxN, MaxP: cfg.MaxP,
	}
	if err := writeFrame(conn, msgHello, h, nil); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: handshake send: %w", err)
	}
	mt, hdr, _, err := readFrame(w.br, cfg.MaxFrame)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: handshake read: %w", err)
	}
	var wel welcome
	if mt != msgWelcome || json.Unmarshal(hdr, &wel) != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: unexpected handshake reply (type %d)", mt)
	}
	if !wel.OK {
		conn.Close()
		return nil, fmt.Errorf("cluster: coordinator refused registration: %s", wel.Reason)
	}
	_ = conn.SetDeadline(time.Time{})
	w.id = wel.WorkerID
	w.ctx, w.cancel = context.WithCancel(context.Background())
	cfg.Log.Info("cluster: worker registered", "worker", cfg.Name, "coordinator", addr, "id", w.id)
	return w, nil
}

// Serve runs the read loop until the connection closes or ctx is
// canceled (which aborts the connection). A connection that ends after
// a graceful drain — ours via Stop, or the coordinator's via Goodbye —
// returns nil; an unexpected loss returns the read error.
func (w *Worker) Serve(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() { w.closeConn() })
	defer stop()
	for {
		mt, hdr, tail, err := readFrame(w.br, w.cfg.MaxFrame)
		if err != nil {
			w.mu.Lock()
			clean := w.draining || w.closed
			w.mu.Unlock()
			if clean || ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("cluster: coordinator connection lost: %w", err)
		}
		switch mt {
		case msgJob:
			w.handleJob(hdr, tail)
		case msgPing:
			var pi ping
			_ = json.Unmarshal(hdr, &pi)
			w.mu.Lock()
			inflight := w.inflight
			w.mu.Unlock()
			_ = w.send(msgPong, pong{Seq: pi.Seq, Inflight: inflight}, nil)
		case msgGoodbye:
			// Coordinator drain: finish in-flight jobs, flush their
			// results, then hang up. New Job frames stop arriving once
			// the coordinator has said goodbye.
			w.cfg.Log.Info("cluster: worker draining", "worker", w.cfg.Name, "reason", "coordinator goodbye")
			w.mu.Lock()
			w.draining = true
			w.mu.Unlock()
			go func() {
				w.wg.Wait()
				w.closeConn()
			}()
		}
	}
}

// Stop drains the worker gracefully: it tells the coordinator to stop
// routing jobs here, waits (bounded by ctx) for in-flight jobs to
// finish and their results to flush, then closes the connection.
func (w *Worker) Stop(ctx context.Context) error {
	w.mu.Lock()
	already := w.draining
	w.draining = true
	w.mu.Unlock()
	if !already {
		_ = w.send(msgGoodbye, struct{}{}, nil)
	}
	done := make(chan struct{})
	go func() { w.wg.Wait(); close(done) }()
	select {
	case <-done:
		w.closeConn()
		return nil
	case <-ctx.Done():
		w.closeConn()
		return ctx.Err()
	}
}

// Abort drops the connection immediately, without draining — the
// failover drills use it to stand in for a killed worker process.
func (w *Worker) Abort() { w.closeConn() }

func (w *Worker) closeConn() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.conn.Close()
	w.cancel() // after the close, so a canceled job's reply cannot go out
}

// handleJob validates the spec and executes it on a goroutine, so slow
// jobs never block the read loop (or each other).
func (w *Worker) handleJob(hdr, tail []byte) {
	var spec jobSpec
	if err := json.Unmarshal(hdr, &spec); err != nil {
		_ = w.send(msgResult, jobReply{Err: fmt.Sprintf("bad job header: %v", err), ErrKind: kindBadJob}, nil)
		return
	}
	reject := func(err error, kind string) {
		_ = w.send(msgResult, jobReply{ID: spec.ID, Err: err.Error(), ErrKind: kind}, nil)
	}
	alg, err := hypermm.ParseAlgorithm(spec.Algorithm)
	if err != nil {
		reject(err, kindBadJob)
		return
	}
	if spec.Ports != int(hypermm.OnePort) && spec.Ports != int(hypermm.MultiPort) {
		reject(fmt.Errorf("bad port model %d", spec.Ports), kindBadJob)
		return
	}
	if w.cfg.MaxN > 0 && spec.N > w.cfg.MaxN {
		reject(fmt.Errorf("n=%d exceeds worker limit %d", spec.N, w.cfg.MaxN), kindBadJob)
		return
	}
	if w.cfg.MaxP > 0 && spec.P > w.cfg.MaxP {
		reject(fmt.Errorf("p=%d exceeds worker limit %d", spec.P, w.cfg.MaxP), kindBadJob)
		return
	}
	A, rest, err := takeMatrix(tail, spec.N, spec.N)
	if err != nil {
		reject(err, kindBadJob)
		return
	}
	B, rest, err := takeMatrix(rest, spec.N, spec.N)
	if err != nil || len(rest) != 0 {
		reject(fmt.Errorf("bad operand tail (%d trailing bytes, err %v)", len(rest), err), kindBadJob)
		return
	}
	cfg := hypermm.Config{
		P: spec.P, Ports: hypermm.PortModel(spec.Ports),
		Ts: spec.Ts, Tw: spec.Tw, Tc: spec.Tc,
		Faults: spec.Fault.plan(), Deadline: spec.Deadline,
	}

	w.mu.Lock()
	w.inflight++
	w.wg.Add(1)
	w.mu.Unlock()
	go func() {
		defer func() {
			w.mu.Lock()
			w.inflight--
			w.mu.Unlock()
			w.wg.Done()
		}()
		ctx := w.ctx
		if spec.WallMs > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.WallMs)*time.Millisecond)
			defer cancel()
		}
		// A valid propagated trace context parents this job's execute
		// span under the coordinator's dispatch attempt; the span rides
		// home in the Result frame. A missing or malformed context (or a
		// worker without a tracer) just runs the job untraced.
		var espan *obs.Span
		sc, traced := spec.spanContext()
		if traced && w.cfg.Tracer != nil {
			ctx, espan = w.cfg.Tracer.StartSpan(obs.ContextWith(ctx, sc), "worker.execute",
				obs.String("worker", w.cfg.Name), obs.String("algorithm", spec.Algorithm),
				obs.Int("n", spec.N), obs.Int("p", spec.P))
		}
		// jobSpans closes the execute span and returns this job's spans —
		// the ones parented under this exact dispatch attempt, so retried
		// jobs of the same trace on this worker never ship twice.
		jobSpans := func(outcome string) []obs.SpanData {
			if espan == nil {
				return nil
			}
			espan.Set(obs.String("outcome", outcome))
			espan.End()
			td, ok := w.cfg.Tracer.Trace(sc.TraceID)
			if !ok {
				return nil
			}
			var out []obs.SpanData
			for _, s := range td.Spans {
				if s.Parent == sc.SpanID {
					out = append(out, s)
				}
			}
			return out
		}
		meta := JobMeta{Tenant: spec.Tenant, Class: spec.Class, Priority: spec.Priority}
		res, err := w.exec(ctx, meta, alg, cfg, A, B)
		if err != nil {
			kind := errKindOf(err)
			_ = w.send(msgResult, jobReply{ID: spec.ID, Err: err.Error(), ErrKind: kind, Spans: jobSpans(kind)}, nil)
			return
		}
		reply := jobReply{
			ID: spec.ID, Elapsed: res.Elapsed, Comm: res.Comm,
			Rows: res.C.Rows, Cols: res.C.Cols, Spans: jobSpans("ok"),
		}
		_ = w.send(msgResult, reply, appendMatrix(make([]byte, 0, len(res.C.Data)*8), res.C))
	}()
}

// exec invokes the hook, converting a panic into a job error so one
// poisoned job can't take the whole worker down.
func (w *Worker) exec(ctx context.Context, meta JobMeta, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (res *hypermm.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("cluster: job panicked: %v", r)
		}
	}()
	if w.cfg.ExecMeta != nil {
		return w.cfg.ExecMeta(ctx, meta, alg, cfg, A, B)
	}
	return w.cfg.Exec(ctx, alg, cfg, A, B)
}

// errKindOf buckets an execution error for the wire.
func errKindOf(err error) string {
	switch {
	case errors.Is(err, hypermm.ErrLinkDown):
		return kindLinkDown
	case errors.Is(err, hypermm.ErrDeadline):
		return kindDeadline
	case errors.Is(err, ErrBusy):
		return kindBusy
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return kindCanceled
	default:
		return kindRun
	}
}

func (w *Worker) send(mt byte, header any, tail []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeFrame(w.conn, mt, header, tail)
}
