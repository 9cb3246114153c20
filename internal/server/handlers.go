package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"hypermm"
	"hypermm/internal/calibrate"
	"hypermm/internal/cluster"
	"hypermm/internal/obs"
	"hypermm/internal/qos"
)

// Config sizes the serving subsystem.
type Config struct {
	Workers    int // worker pool size (default 4)
	QueueDepth int // bounded queue (default 2 * Workers)
	CacheSize  int // planner LRU entries (default 1024)
	MaxN       int // largest accepted matrix size (default 1024)
	MaxP       int // largest accepted machine size (default 4096)

	// Calibration, when non-nil, is a validated measurement-fitted
	// profile (internal/calibrate): the planner predicts with it, plans
	// are marked calibrated, and GET /v1/calibration serves it.
	Calibration *calibrate.Profile

	// QoS, when non-nil, is a validated multi-tenant policy
	// (internal/qos): requests resolve to tenants by API key or
	// X-Tenant header, the scheduler queue becomes weighted-fair with
	// class priorities, token buckets meter admission by predicted
	// cost, and /metrics gains the hmmd_qos_* family. Nil serves every
	// request as one default tenant with the pre-QoS FIFO semantics.
	QoS *qos.Config

	// Cluster, when non-nil, makes this server a coordinator front-end:
	// non-trace jobs are routed to registered cluster workers instead of
	// executing in-process, and /metrics gains the cluster family.
	Cluster *cluster.Coordinator

	// TraceRing bounds the in-memory ring of recently completed request
	// traces behind GET /v1/trace/{id} (default 256; negative disables
	// request tracing entirely).
	TraceRing int

	// Tracer, when non-nil, overrides the ring built from TraceRing.
	// The daemon uses this to share one tracer between the HTTP tier and
	// the cluster tier, so coordinator-side dispatch spans and ingested
	// worker spans land in the same ring as the handler's root span.
	Tracer *obs.Tracer

	// Log receives per-job and lifecycle events as structured records
	// (nil: silent).
	Log *slog.Logger

	// Pprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/ (opt-in: profiles expose process internals).
	Pprof bool
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.CacheSize < 1 {
		c.CacheSize = 1024
	}
	if c.MaxN < 1 {
		c.MaxN = 1024
	}
	if c.MaxP < 1 {
		c.MaxP = 4096
	}
	if c.TraceRing == 0 {
		c.TraceRing = 256
	}
	if c.Log == nil {
		c.Log = obs.NopLogger()
	}
	return c
}

// Server wires the planner, scheduler and metrics behind an HTTP API.
// Every job it executes runs on a freshly built machine.
type Server struct {
	cfg     Config
	planner *Planner
	sched   *Scheduler
	metrics *Metrics
	cluster *cluster.Coordinator // nil when serving standalone
	tracer  *obs.Tracer          // nil when request tracing is disabled
	qosReg  *qos.Registry        // never nil; disabled without Config.QoS
}

// New builds a ready-to-serve Server. A Config.Calibration profile
// that fails validation or model construction is an error: serving
// traffic with a half-loaded cost model is worse than refusing to
// start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	planner := NewPlanner(cfg.CacheSize)
	if cfg.Calibration != nil {
		model, err := cfg.Calibration.Model()
		if err != nil {
			return nil, fmt.Errorf("server: calibration profile rejected: %w", err)
		}
		planner.WithCalibration(model)
		m.SetCalibrationLoaded(true)
	}
	tracer := cfg.Tracer
	if tracer == nil && cfg.TraceRing > 0 {
		tracer = obs.NewTracer("hmmd", cfg.TraceRing)
	}
	sched := NewScheduler(cfg.Workers, cfg.QueueDepth, m)
	sched.cluster = cfg.Cluster
	sched.tracer = tracer
	if cfg.QoS != nil {
		if err := cfg.QoS.Validate(); err != nil {
			return nil, fmt.Errorf("server: qos config rejected: %w", err)
		}
		sched.reg = qos.NewRegistry(cfg.QoS, nil)
	}
	return &Server{
		cfg:     cfg,
		planner: planner,
		sched:   sched,
		metrics: m,
		cluster: cfg.Cluster,
		tracer:  tracer,
		qosReg:  sched.reg,
	}, nil
}

// Execute plans and runs one multiplication through the scheduler's
// admission control, without the HTTP layer — cluster workers wrap it
// as their ExecFunc. A plannable job keeps its predicted-time ratio in
// the metrics; one the cost model refuses (the planner can be stricter
// than the emulator) still executes, under a bare plan.
func (s *Server) Execute(ctx context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
	return s.ExecuteMeta(ctx, cluster.JobMeta{}, alg, cfg, A, B)
}

// ExecuteMeta is Execute with QoS attribution from the wire: the job is
// accounted to the named tenant (or this worker's default) and queued
// at the carried class, but marked pre-admitted — the coordinator that
// accepted the request already debited the tenant's token bucket, and
// a forwarded job must not pay twice.
func (s *Server) ExecuteMeta(ctx context.Context, meta cluster.JobMeta, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
	plan, err := s.planner.Plan(PlanRequest{
		N: float64(A.Rows), P: float64(cfg.P),
		Ts: cfg.Ts, Tw: cfg.Tw, Tc: cfg.Tc, Ports: cfg.Ports, Alg: &alg,
	})
	if err != nil {
		plan = &Plan{Algorithm: alg, AlgorithmName: alg.Name()}
	}
	job := Job{Plan: plan, Cfg: cfg, A: A, B: B, PreAdmitted: true}
	job.Tenant = s.qosReg.Default()
	if meta.Tenant != "" {
		if t := s.qosReg.ByName(meta.Tenant); t != nil {
			job.Tenant = t
		}
	}
	job.Class = job.Tenant.Class
	if c, cerr := qos.ParseClass(meta.Class); cerr == nil && meta.Class != "" {
		job.Class = c
	}
	job.EDFDeadline = cfg.Deadline
	jr, err := s.sched.Submit(ctx, job)
	if err != nil {
		return nil, err
	}
	return jr.Res, nil
}

// Metrics exposes the registry (for tests and the daemon).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Tracer exposes the request-trace ring (nil when tracing is disabled);
// the daemon hands it to the cluster tier so one ring holds both halves
// of a cross-process trace.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Planner exposes the planner (for tests and the daemon).
func (s *Server) Planner() *Planner { return s.planner }

// Drain stops job intake and waits (bounded by ctx) for admitted jobs
// to finish; /healthz reports draining and new jobs get 503.
func (s *Server) Drain(ctx context.Context) error { return s.sched.Drain(ctx) }

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/matmul", s.handleMatmul)
	mux.HandleFunc("/v1/plan", s.handlePlan)
	mux.HandleFunc("/v1/regionmap", s.handleRegionMap)
	mux.HandleFunc("/v1/calibration", s.handleCalibration)
	mux.HandleFunc("/v1/qos", s.handleQoS)
	mux.HandleFunc("/v1/trace/", s.handleTrace)
	mux.HandleFunc("/v1/version", s.handleVersion)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// FaultSpec is the request-level fault plan for chaos-in-prod testing;
// fields mirror hypermm.FaultPlan.
type FaultSpec struct {
	Seed       uint64  `json:"seed"`
	Drop       float64 `json:"drop"`
	Dup        float64 `json:"dup"`
	DelayProb  float64 `json:"delay_prob"`
	DelayTime  float64 `json:"delay_time"`
	MaxRetries int     `json:"max_retries"`
	AckTimeout float64 `json:"ack_timeout"`
	Backoff    float64 `json:"backoff"`
	// Down lists [src, dst, from, to] outage windows; src/dst -1 match
	// every node and to <= 0 means forever.
	Down [][4]float64 `json:"down"`
}

func (f *FaultSpec) plan() *hypermm.FaultPlan {
	if f == nil {
		return nil
	}
	fp := &hypermm.FaultPlan{
		Seed: f.Seed, Drop: f.Drop, Dup: f.Dup,
		DelayProb: f.DelayProb, DelayTime: f.DelayTime,
		MaxRetries: f.MaxRetries, AckTimeout: f.AckTimeout, Backoff: f.Backoff,
	}
	for _, w := range f.Down {
		to := w[3]
		if to <= 0 {
			to = hypermm.Forever
		}
		fp.Down = append(fp.Down, hypermm.Window{Src: int(w[0]), Dst: int(w[1]), From: w[2], To: to})
	}
	return fp
}

// MatmulRequest is the POST /v1/matmul body. Operands come either from
// Seed (deterministic server-side generation) or inline row-major A/B.
type MatmulRequest struct {
	N         int        `json:"n"`
	P         int        `json:"p"`
	Ports     string     `json:"ports"`     // "one" (default) or "multi"
	Ts        *float64   `json:"ts"`        // default 150
	Tw        *float64   `json:"tw"`        // default 3
	Tc        *float64   `json:"tc"`        // default 0.5
	Algorithm string     `json:"algorithm"` // "auto" (default) or a name
	Seed      int64      `json:"seed"`      // operand seed (default 1)
	A         []float64  `json:"a,omitempty"`
	B         []float64  `json:"b,omitempty"`
	Verify    bool       `json:"verify"`
	Trace     bool       `json:"trace"`
	Deadline  float64    `json:"deadline"` // simulated-time budget, 0 = none
	Fault     *FaultSpec `json:"fault,omitempty"`
	ReturnC   bool       `json:"return_matrix"`
	// Class optionally demotes this request below its tenant's default
	// priority class ("interactive", "batch", "best-effort"); claiming a
	// class above the tenant's own is a 400.
	Class string `json:"class,omitempty"`
}

// MatmulResponse is the POST /v1/matmul reply.
type MatmulResponse struct {
	Algorithm string         `json:"algorithm"`
	Auto      bool           `json:"auto"`
	N         int            `json:"n"`
	P         int            `json:"p"`
	Ports     string         `json:"ports"`
	Predicted *Plan          `json:"predicted"`
	Simulated SimulatedStats `json:"simulated"`
	Ratio     float64        `json:"ratio"`
	Verified  *bool          `json:"verified,omitempty"`
	WallMs    float64        `json:"wall_ms"`
	C         []float64      `json:"c,omitempty"`
	Gantt     string         `json:"gantt,omitempty"`
	TraceSum  string         `json:"trace_summary,omitempty"`
}

// SimulatedStats is the emulator's measured side of the response.
type SimulatedStats struct {
	Elapsed  float64 `json:"elapsed"`
	Msgs     int64   `json:"msgs"`
	Words    int64   `json:"words"`
	Startups int64   `json:"startups"`
	Flops    int64   `json:"flops"`
	Retries  int64   `json:"retries"`
}

type apiError struct {
	Error string `json:"error"`
}

// writeJSON marshals v before committing the status, so a value JSON
// cannot carry (an Inf, a NaN) is answered 500 with the encoder's error
// rather than a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = json.Marshal(apiError{Error: err.Error()}) // a string always encodes
	}
	writeBody(w, status, b)
}

var newline = []byte{'\n'}

// writeBody sends the JSON value b and a newline, with a Content-Length
// so that a large reply is not sent chunked, and without copying b to
// append the newline.
func writeBody(w http.ResponseWriter, status int, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)+1))
	w.WriteHeader(status)
	// A failed write means the client left; nobody to tell.
	if _, err := w.Write(b); err == nil {
		_, _ = w.Write(newline)
	}
}

// writeMatmul sends a /v1/matmul reply, byte for byte what writeJSON
// sends. A reply without the product goes through writeJSON; one with
// it is marshalMatmul's single buffer.
func writeMatmul(w http.ResponseWriter, resp *MatmulResponse) {
	if len(resp.C) == 0 {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	b, err := marshalMatmul(resp)
	if err != nil {
		writeJSON(w, http.StatusOK, resp) // the same error, as writeJSON answers it
		return
	}
	writeBody(w, http.StatusOK, b)
}

// maxFloatLen is the longest float64 appendFloat writes:
// "-0.0000012345678901234567".
const maxFloatLen = 25

// marshalMatmul is json.Marshal(resp) for a reply carrying the finite
// product C, without reflection over C. The other members go through
// json.Marshal, with C and the members after it (Gantt, TraceSum)
// cleared; C and then the non-empty strings are spliced in before the
// closing brace, into one buffer sized from len(C) so it never grows.
func marshalMatmul(resp *MatmulResponse) ([]byte, error) {
	head := *resp
	head.C, head.Gantt, head.TraceSum = nil, "", ""
	hb, err := json.Marshal(&head)
	if err != nil {
		return nil, err
	}
	var gantt, sum []byte // a string always encodes
	if resp.Gantt != "" {
		gantt, _ = json.Marshal(resp.Gantt)
	}
	if resp.TraceSum != "" {
		sum, _ = json.Marshal(resp.TraceSum)
	}
	const keys = len(`,"c":[]`) + len(`,"gantt":`) + len(`,"trace_summary":`)
	b := make([]byte, 0, len(hb)+keys+len(resp.C)*(maxFloatLen+1)+len(gantt)+len(sum))
	b = append(append(b, hb[:len(hb)-1]...), `,"c":[`...)
	for i, x := range resp.C {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, x)
	}
	b = append(b, ']')
	if gantt != nil {
		b = append(append(b, `,"gantt":`...), gantt...)
	}
	if sum != nil {
		b = append(append(b, `,"trace_summary":`...), sum...)
	}
	return append(b, '}'), nil
}

// appendFloat appends the finite x as encoding/json writes a float64:
// shortest digits, in 'f' format unless |x| < 1e-6 or |x| >= 1e21, and
// an 'e' exponent without a leading zero (1e-07 → 1e-7).
func appendFloat(b []byte, x float64) []byte {
	if a := math.Abs(x); a == 0 || 1e-6 <= a && a < 1e21 {
		return strconv.AppendFloat(b, x, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, x, 'e', -1, 64)
	if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// maxBody bounds a /v1/matmul body: two inline MaxN x MaxN operands at
// 32 bytes per JSON number, plus 1 MiB for everything else.
func (c Config) maxBody() int64 {
	n := int64(c.MaxN)
	return 2*n*n*32 + 1<<20
}

// readBody reads the whole request body, at most limit bytes, into one
// exactly sized buffer when Content-Length is known (refused before
// allocating when it exceeds limit). Going over the limit is an
// *http.MaxBytesError.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	if r.ContentLength < 0 {
		return io.ReadAll(body)
	}
	buf := make([]byte, r.ContentLength)
	_, err := io.ReadFull(body, buf)
	return buf, err
}

// finite reports whether every value in x is neither infinite nor NaN.
func finite(x []float64) bool {
	for _, v := range x {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

func writeErr(w http.ResponseWriter, status int, err error) {
	// Backpressure rejections carry a drain estimate; surface it as the
	// standard Retry-After header (whole seconds, at least 1) so clients
	// can pace instead of hammering.
	var ra *RetryAfterError
	if errors.As(err, &ra) {
		secs := int(ra.After / time.Second)
		if ra.After%time.Second != 0 {
			secs++
		}
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

// errStatus maps subsystem errors to HTTP statuses.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrSaturated):
		return http.StatusTooManyRequests // 429: admission control
	case errors.Is(err, ErrQuota), errors.Is(err, ErrShed):
		return http.StatusTooManyRequests // 429: tenant over quota / shed
	case errors.Is(err, ErrInfeasible):
		return http.StatusGatewayTimeout // 504: predicted to miss its deadline
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable // 503: shutting down
	case errors.Is(err, cluster.ErrDraining), errors.Is(err, cluster.ErrNoWorkers):
		return http.StatusServiceUnavailable // 503: no cluster capacity
	case errors.Is(err, cluster.ErrBusy):
		return http.StatusTooManyRequests // 429: every worker saturated
	case errors.Is(err, cluster.ErrWorkerLost):
		return http.StatusBadGateway // 502: worker died, failover exhausted
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrInapplicable):
		return http.StatusUnprocessableEntity // 422: model says no
	case errors.Is(err, hypermm.ErrLinkDown):
		return http.StatusBadGateway // 502: injected network fault
	case errors.Is(err, hypermm.ErrDeadline):
		return http.StatusGatewayTimeout // 504: simulated deadline
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 499 // client gave up (nginx convention)
	default:
		return http.StatusUnprocessableEntity
	}
}

func (s *Server) handleMatmul(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	// Root span for the whole request; every downstream stage (plan,
	// queue, run or dispatch, worker execution) parents under it via the
	// request context. The trace ID goes out as a response header first
	// thing so even failed requests are correlatable.
	hstart := time.Now()
	ctx, span := s.tracer.StartSpan(r.Context(), "http.matmul")
	if id := span.TraceID(); id != "" {
		w.Header().Set("X-Trace-Id", id)
	}
	outcome := "bad_request"
	defer func() {
		span.Set(obs.String("outcome", outcome))
		span.End()
		s.metrics.StageObserve("handler", time.Since(hstart))
	}()

	body, err := readBody(w, r, s.cfg.maxBody())
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			outcome = "too_large"
			writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", tooBig.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err))
		return
	}
	var req MatmulRequest
	if err := decodeMatmul(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err))
		return
	}
	if req.N < 1 || req.N > s.cfg.MaxN {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("n=%d out of range [1, %d]", req.N, s.cfg.MaxN))
		return
	}
	if req.P < 1 || req.P > s.cfg.MaxP {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("p=%d out of range [1, %d]", req.P, s.cfg.MaxP))
		return
	}
	ports, err := parsePortsDefault(req.Ports)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ts, tw, tc := orDefault(req.Ts, 150), orDefault(req.Tw, 3), orDefault(req.Tc, 0.5)

	preq := PlanRequest{N: float64(req.N), P: float64(req.P), Ts: ts, Tw: tw, Tc: tc, Ports: ports}
	auto := req.Algorithm == "" || req.Algorithm == "auto"
	if !auto {
		alg, perr := hypermm.ParseAlgorithm(req.Algorithm)
		if perr != nil {
			writeErr(w, http.StatusBadRequest, perr)
			return
		}
		preq.Alg = &alg
	}
	pstart := time.Now()
	_, pspan := s.tracer.StartSpan(ctx, "plan")
	plan, err := s.planner.Plan(preq)
	pspan.Set(obs.Bool("ok", err == nil))
	pspan.End()
	s.metrics.StageObserve("plan", time.Since(pstart))
	if err != nil {
		outcome = "plan_error"
		writeErr(w, errStatus(err), err)
		return
	}
	span.Set(obs.String("algorithm", plan.AlgorithmName),
		obs.Int("n", req.N), obs.Int("p", req.P), obs.Bool("auto", plan.Auto))

	// Tenant resolution and deadline admission. The tenant's class is a
	// ceiling: a request may demote itself (an interactive tenant running
	// a backfill as best-effort) but never claim a class above its own.
	tenant := s.qosReg.Resolve(r.Header.Get("X-API-Key"), r.Header.Get("X-Tenant"))
	class := tenant.Class
	if req.Class != "" {
		c, cerr := qos.ParseClass(req.Class)
		if cerr != nil {
			writeErr(w, http.StatusBadRequest, cerr)
			return
		}
		if c < tenant.Class {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("class %q above tenant %q ceiling %q", c.String(), tenant.Name, tenant.Class.String()))
			return
		}
		class = c
	}
	span.Set(obs.String("tenant", tenant.Name), obs.String("class", class.String()))
	if s.qosReg.Enabled() && req.Deadline > 0 && plan.PredictedTime > req.Deadline {
		// The cost model (calibrated when a profile is loaded) says this
		// job cannot make its own deadline: refuse it before it consumes
		// a slot and times out anyway.
		tenant.Infeasible.Add(1)
		outcome = "infeasible"
		writeErr(w, errStatus(ErrInfeasible), fmt.Errorf("%w: predicted %g > deadline %g",
			ErrInfeasible, plan.PredictedTime, req.Deadline))
		return
	}

	// Request-scoped arena: seeded operands are built on pooled slabs
	// and returned when the request is done, so steady-state serving
	// reuses the same few big buffers instead of churning the GC. The
	// arena is only released once the job provably finished — a client
	// that gives up leaves its job running on these very slabs.
	arena := hypermm.NewArena()
	releaseArena := true
	defer func() {
		if releaseArena {
			arena.Release()
		}
	}()
	A, B, err := operands(&req, arena)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}

	job := Job{
		Plan: plan,
		Cfg: hypermm.Config{
			P: req.P, Ports: ports, Ts: ts, Tw: tw, Tc: tc,
			Faults: req.Fault.plan(), Deadline: req.Deadline,
		},
		A: A, B: B, Trace: req.Trace, Verify: req.Verify,
		Tenant: tenant, Class: class,
		EDFDeadline: req.Deadline, Cost: plan.PredictedTime,
	}
	jr, err := s.sched.Submit(ctx, job)
	if err != nil {
		if jr == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// The client gave up but the admitted job still runs to
			// completion on the arena's operands: leave the slabs to
			// the garbage collector rather than recycle them under it.
			releaseArena = false
		}
		outcome = errKind(err)
		s.cfg.Log.Warn("matmul failed",
			"trace_id", span.TraceID(), "algorithm", plan.AlgorithmName,
			"tenant", tenant.Name, "class", class.String(),
			"n", req.N, "p", req.P, "outcome", outcome, "error", err.Error())
		writeErr(w, errStatus(err), err)
		return
	}
	if jr.Res != nil {
		// The product's backing slab feeds the next request's operands.
		defer arena.Adopt(jr.Res.C)
	}
	if req.ReturnC && !finite(jr.Res.C.Data) {
		// JSON has no Inf or NaN: refuse rather than send a product
		// the client cannot read back.
		outcome = "not_finite"
		writeErr(w, http.StatusUnprocessableEntity, errors.New("product is not finite"))
		return
	}
	outcome = "ok"
	s.cfg.Log.Info("matmul served",
		"trace_id", span.TraceID(), "algorithm", plan.AlgorithmName,
		"tenant", tenant.Name, "class", class.String(),
		"n", req.N, "p", req.P, "outcome", outcome,
		"wall_ms", float64(jr.Wall.Microseconds())/1000, "ratio", jr.Ratio)

	resp := MatmulResponse{
		Algorithm: plan.AlgorithmName, Auto: plan.Auto,
		N: req.N, P: req.P, Ports: ports.String(),
		Predicted: plan,
		Simulated: SimulatedStats{
			Elapsed: jr.Res.Elapsed, Msgs: jr.Res.Comm.Msgs, Words: jr.Res.Comm.Words,
			Startups: jr.Res.Comm.Startups, Flops: jr.Res.Comm.Flops, Retries: jr.Res.Comm.Retries,
		},
		Ratio:  jr.Ratio,
		WallMs: float64(jr.Wall.Microseconds()) / 1000,
	}
	if req.Verify {
		ok := true
		resp.Verified = &ok
	}
	if req.ReturnC {
		resp.C = jr.Res.C.Data
	}
	if jr.Trace != nil {
		resp.Gantt = jr.Trace.Gantt(100)
		resp.TraceSum = jr.Trace.Summary()
	}
	writeMatmul(w, &resp)
}

// operands builds A and B from inline data or the request seed. Seeded
// operands are allocated on the request's arena (contents are identical
// to hypermm.RandomMatrix). Inline operands wrap the slices
// decodeMatmul parsed them into, sized exactly, and stay off the arena:
// its power-of-two slabs (512 KiB for an n = 192 operand of 288 KiB)
// parked in the pool cost serve-inline about a tenth of its peak RSS
// and bought no latency.
func operands(req *MatmulRequest, arena *hypermm.Arena) (A, B *hypermm.Matrix, err error) {
	n := req.N
	if len(req.A) == 0 && len(req.B) == 0 {
		seed := req.Seed
		if seed == 0 {
			seed = 1
		}
		return arena.RandomMatrix(n, n, seed), arena.RandomMatrix(n, n, seed+1), nil
	}
	if len(req.A) != n*n || len(req.B) != n*n {
		return nil, nil, fmt.Errorf("inline operands must both be n*n=%d values (got %d and %d)",
			n*n, len(req.A), len(req.B))
	}
	return &hypermm.Matrix{Rows: n, Cols: n, Data: req.A},
		&hypermm.Matrix{Rows: n, Cols: n, Data: req.B}, nil
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	q := r.URL.Query()
	n, err := queryFloat(q.Get("n"), 0)
	if err != nil || n < 1 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("need a numeric n >= 1, got %q", q.Get("n")))
		return
	}
	p, err := queryFloat(q.Get("p"), 0) // 0: planner searches machine sizes
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ts, err1 := queryFloat(q.Get("ts"), 150)
	tw, err2 := queryFloat(q.Get("tw"), 3)
	tc, err3 := queryFloat(q.Get("tc"), 0.5)
	if err := errors.Join(err1, err2, err3); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ports, err := parsePortsDefault(q.Get("ports"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	preq := PlanRequest{N: n, P: p, Ts: ts, Tw: tw, Tc: tc, Ports: ports}
	if alg := q.Get("alg"); alg != "" && alg != "auto" {
		a, perr := hypermm.ParseAlgorithm(alg)
		if perr != nil {
			writeErr(w, http.StatusBadRequest, perr)
			return
		}
		preq.Alg = &a
	}
	plan, err := s.planner.Plan(preq)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, plan)
}

func (s *Server) handleRegionMap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	q := r.URL.Query()
	ports, err := parsePortsDefault(q.Get("ports"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ts, err1 := queryFloat(q.Get("ts"), 150)
	tw, err2 := queryFloat(q.Get("tw"), 3)
	// Figure 13/14 axes by default: logN in [4, 14], logP in [2, 16].
	lnMin, err3 := queryFloat(q.Get("lognmin"), 4)
	lnMax, err4 := queryFloat(q.Get("lognmax"), 14)
	lpMin, err5 := queryFloat(q.Get("logpmin"), 2)
	lpMax, err6 := queryFloat(q.Get("logpmax"), 16)
	nSteps, err7 := queryInt(q.Get("nsteps"), 61)
	pSteps, err8 := queryInt(q.Get("psteps"), 29)
	if err := errors.Join(err1, err2, err3, err4, err5, err6, err7, err8); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if nSteps < 2 || pSteps < 2 || nSteps > 512 || pSteps > 512 ||
		lnMax <= lnMin || lpMax <= lpMin {
		writeErr(w, http.StatusBadRequest, errors.New("region map axes out of range"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, hypermm.RegionMap(ports, ts, tw, lnMin, lnMax, nSteps, lpMin, lpMax, pSteps))
}

// handleCalibration serves the loaded calibration profile, or 404 when
// the daemon plans with the raw analytic model.
func (s *Server) handleCalibration(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	if s.cfg.Calibration == nil {
		writeErr(w, http.StatusNotFound, errors.New("no calibration profile loaded (start hmmd with -calibration)"))
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Calibration)
}

// handleQoS serves the loaded QoS policy plus live per-tenant stats, or
// 404 when the daemon serves without one.
func (s *Server) handleQoS(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	if s.cfg.QoS == nil {
		writeErr(w, http.StatusNotFound, errors.New("no QoS policy loaded (start hmmd with -qos)"))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Config  *qos.Config       `json:"config"`
		Tenants []qos.TenantStats `json:"tenants"`
	}{s.cfg.QoS, s.sched.QoSStats()})
}

// handleTrace serves one recorded request trace. The default form is
// the Chrome trace-event JSON (load it in Perfetto or chrome://tracing)
// with server spans and, for traced runs, the simulated per-node
// timeline merged on the request's wall-clock interval; ?format=spans
// returns the raw span records for programmatic assertions.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if s.tracer == nil {
		writeErr(w, http.StatusNotFound, errors.New("request tracing disabled (TraceRing < 0)"))
		return
	}
	td, ok := s.tracer.Trace(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown trace %q (the ring holds the most recent traces only)", id))
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = td.ChromeJSON(w)
	case "spans":
		writeJSON(w, http.StatusOK, td)
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want chrome or spans)", r.URL.Query().Get("format")))
	}
}

// handleVersion serves the build's identity from the binary itself.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	writeJSON(w, http.StatusOK, ReadVersion())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.sched.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses, entries := s.planner.CacheStats()
	var cl *cluster.Stats
	if s.cluster != nil {
		st := s.cluster.Stats()
		cl = &st
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var qs []qos.TenantStats
	if s.qosReg.Enabled() {
		qs = s.sched.QoSStats()
	}
	fmt.Fprint(w, s.metrics.Render(hits, misses, entries, cl, qs))
}

func parsePortsDefault(s string) (hypermm.PortModel, error) {
	if s == "" {
		return hypermm.OnePort, nil
	}
	return hypermm.ParsePortModel(s)
}

func orDefault(v *float64, def float64) float64 {
	if v == nil {
		return def
	}
	return *v
}

func queryFloat(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad numeric parameter %q", s)
	}
	return v, nil
}

func queryInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad integer parameter %q", s)
	}
	return v, nil
}
