// Command hmmd serves distributed matrix multiplications over
// HTTP/JSON: a cost-model planner picks the paper's cheapest algorithm
// per request, a bounded scheduler with admission control executes jobs
// on the simulated hypercube, and /metrics exposes Prometheus counters
// including the simulated-vs-predicted time ratio.
//
// Usage:
//
//	hmmd -addr :8080 -workers 4 -queue 16
//	hmmd -calibration profile.json   # plan with an hmm calibrate profile
//	hmmd -qos qos.json               # multi-tenant weighted-fair QoS
//
//	hmmd -role coordinator -addr :8080 -cluster-addr :9000
//	hmmd -role worker -join host:9000 -addr :8081
//
//	hmmd -log-format text -log-level debug -pprof   # human logs, profiling on
//	hmmd -version                                   # build info and exit
//
// Endpoints:
//
//	POST /v1/matmul      run a multiplication ("algorithm": "auto" picks the winner)
//	GET  /v1/plan        cost-model plan without running anything
//	GET  /v1/regionmap   Figure 13/14-style best-algorithm map (text)
//	GET  /v1/calibration the loaded calibration profile (404 without one)
//	GET  /v1/qos         the loaded QoS policy + live per-tenant stats
//	                     (404 without one)
//	GET  /v1/trace/{id}  a recent request's trace: Chrome trace-event JSON
//	                     (default; merged with the simulated timeline for
//	                     "trace": true jobs) or raw spans (?format=spans)
//	GET  /v1/version     build identity from the binary's embedded info
//	GET  /debug/pprof/*  net/http/pprof profiling (only with -pprof)
//	GET  /healthz        ok, or 503 while draining
//	GET  /metrics        Prometheus text exposition
//
// Every /v1/matmul response carries an X-Trace-Id header naming its
// trace; -trace-ring bounds how many recent traces are kept (-1
// disables tracing). Logs are structured log/slog lines (-log-level,
// -log-format) sharing the same trace IDs. In cluster roles the trace
// context rides the job RPC, so a coordinator's /v1/trace/{id} shows
// dispatch attempts and the workers' execute spans in one timeline.
//
// With -calibration, plans are marked "calibrated": true and predicted
// times come from the measurement-fitted model instead of the raw
// Table 2 expressions.
//
// With -qos, requests resolve to tenants by X-API-Key or X-Tenant
// header, the scheduler queue becomes a weighted-fair priority queue
// (interactive > batch > best-effort, per-tenant virtual-time WFQ
// within a class, EDF within a tenant), token buckets meter each
// tenant's admission by the planner's predicted cost (429 +
// Retry-After when exhausted, 504 when a deadline is predicted
// infeasible), best-effort work is shed first under overload, and
// /metrics gains per-tenant hmmd_qos_* series.
//
// With -role coordinator, a second TCP listener (-cluster-addr) accepts
// worker registrations and every non-trace job is sharded least-loaded
// across them, with health probes, circuit breakers and mid-job
// failover. With -role worker, the process registers at -join and
// executes jobs for the coordinator through its own scheduler, each on a
// fresh machine; its HTTP endpoints stay available for local inspection.
//
// SIGTERM or SIGINT begins a graceful shutdown: intake stops (503),
// in-flight and queued jobs drain, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"hypermm"
	"hypermm/internal/calibrate"
	"hypermm/internal/cluster"
	"hypermm/internal/obs"
	"hypermm/internal/qos"
	"hypermm/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// newHTTPServer wraps the handler in an http.Server with hardened
// listener timeouts: slow-header clients are cut off and idle
// keep-alive connections reclaimed, while in-flight requests (jobs can
// legitimately run long) stay unbounded and drain on shutdown.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// run is main's testable body; ready (when non-nil) receives the bound
// cluster address first (coordinator role only, as "cluster=<addr>")
// and then the bound HTTP listen address once the server accepts
// connections.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("hmmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", ":8080", "HTTP listen address")
		workers = fs.Int("workers", 4, "scheduler worker pool size")
		queue   = fs.Int("queue", 0, "scheduler queue depth (0: 2x workers)")
		cache   = fs.Int("cache", 1024, "planner LRU cache entries")
		maxN    = fs.Int("maxn", 1024, "largest accepted matrix size")
		maxP    = fs.Int("maxp", 4096, "largest accepted machine size")
		drain   = fs.Duration("drain", 30*time.Second, "shutdown drain budget")
		calib   = fs.String("calibration", "", "calibration profile JSON (from hmm calibrate); empty: raw Table 2 model")
		qosPath = fs.String("qos", "", "multi-tenant QoS policy JSON (tenants, weights, classes, quotas); empty: single-tenant FIFO")

		role        = fs.String("role", "", `cluster role: "" standalone, "coordinator", or "worker"`)
		clusterAddr = fs.String("cluster-addr", ":9000", "coordinator: TCP listen address for worker registrations")
		join        = fs.String("join", "", "worker: coordinator cluster address to register with")
		joinWait    = fs.Duration("join-wait", 10*time.Second, "worker: how long to keep retrying registration")
		name        = fs.String("name", "", "worker: advertised name (default host:pid)")

		logLevel  = fs.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat = fs.String("log-format", "json", "log format: json or text")
		pprofOn   = fs.Bool("pprof", false, "mount /debug/pprof/* profiling endpoints (opt-in)")
		traceRing = fs.Int("trace-ring", 0, "recent request traces kept for GET /v1/trace/{id} (0: 256, negative: disable tracing)")
		version   = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		v := server.ReadVersion()
		fmt.Fprintf(stdout, "hmmd %s %s (built with %s", v.Module, v.Version, v.GoVersion)
		if v.Revision != "" {
			fmt.Fprintf(stdout, ", revision %s", v.Revision)
			if v.Modified {
				fmt.Fprint(stdout, " dirty")
			}
		}
		fmt.Fprintln(stdout, ")")
		return 0
	}
	logger, err := obs.NewLogger(stdout, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(stderr, "hmmd:", err)
		return 2
	}
	switch *role {
	case "", "coordinator", "worker":
	default:
		fmt.Fprintf(stderr, "hmmd: unknown -role %q (want coordinator or worker)\n", *role)
		return 2
	}
	if *role == "worker" && *join == "" {
		fmt.Fprintln(stderr, "hmmd: -role worker requires -join <coordinator cluster address>")
		return 2
	}

	// Worker identity and the tracer's process label are settled before
	// anything starts: the label stamps every span this process records,
	// and the merged cross-process trace tells the tiers apart by it.
	wname := *name
	if wname == "" {
		host, _ := os.Hostname()
		wname = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	proc := "hmmd"
	switch *role {
	case "coordinator":
		proc = "hmmd-coordinator"
	case "worker":
		proc = "hmmd-worker/" + wname
	}
	var tracer *obs.Tracer
	if *traceRing >= 0 {
		ring := *traceRing
		if ring == 0 {
			ring = 256
		}
		tracer = obs.NewTracer(proc, ring)
	}

	v := server.ReadVersion()
	logger.Info("hmmd: starting",
		"version", v.Version, "go", v.GoVersion, "revision", v.Revision,
		"role", orStandalone(*role), "pprof", *pprofOn)

	var profile *calibrate.Profile
	if *calib != "" {
		p, err := calibrate.Load(*calib)
		if err != nil {
			fmt.Fprintln(stderr, "hmmd:", err)
			return 1
		}
		profile = p
		logger.Info("hmmd: calibration profile loaded",
			"path", *calib, "ports", string(profile.PortModel),
			"ts_eff", profile.TsEff, "tw_eff", profile.TwEff,
			"max_rel_err", profile.MaxRelErr())
	}

	var qosCfg *qos.Config
	if *qosPath != "" {
		c, err := qos.Load(*qosPath)
		if err != nil {
			fmt.Fprintln(stderr, "hmmd:", err)
			return 1
		}
		qosCfg = c
		names := make([]string, 0, len(c.Tenants))
		for n := range c.Tenants {
			names = append(names, n)
		}
		sort.Strings(names)
		logger.Info("hmmd: qos policy loaded",
			"path", *qosPath, "tenants", strings.Join(names, ","), "default", c.Default != nil)
	}

	// Installed before the first ready message: a caller may signal the
	// moment it hears one.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var coord *cluster.Coordinator
	if *role == "coordinator" {
		var err error
		coord, err = cluster.NewCoordinator(cluster.Config{
			Addr: *clusterAddr, Log: logger, Tracer: tracer,
		})
		if err != nil {
			fmt.Fprintln(stderr, "hmmd:", err)
			return 1
		}
		defer coord.Close()
		logger.Info("hmmd: coordinator accepting workers", "addr", coord.Addr().String())
		if ready != nil {
			ready <- "cluster=" + coord.Addr().String()
		}
	}

	srv, err := server.New(server.Config{
		Workers: *workers, QueueDepth: *queue, CacheSize: *cache,
		MaxN: *maxN, MaxP: *maxP, Calibration: profile, Cluster: coord, QoS: qosCfg,
		TraceRing: *traceRing, Tracer: tracer, Log: logger, Pprof: *pprofOn,
	})
	if err != nil {
		fmt.Fprintln(stderr, "hmmd:", err)
		return 1
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "hmmd:", err)
		return 1
	}
	logger.Info("hmmd: listening", "addr", ln.Addr().String(), "workers", *workers, "queue", *queue)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// Worker role: register with the coordinator (retrying while it
	// comes up) and execute its jobs through this process's scheduler,
	// mapping local admission-control refusals to a busy answer the
	// coordinator retries elsewhere.
	var wk *cluster.Worker
	workerErr := make(chan error, 1)
	if *role == "worker" {
		exec := func(ctx context.Context, meta cluster.JobMeta, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
			res, err := srv.ExecuteMeta(ctx, meta, alg, cfg, A, B)
			if errors.Is(err, server.ErrSaturated) || errors.Is(err, server.ErrDraining) {
				return nil, fmt.Errorf("%w: %v", cluster.ErrBusy, err)
			}
			return res, err
		}
		jctx, cancelJoin := context.WithTimeout(ctx, *joinWait)
		defer cancelJoin()
		for {
			wk, err = cluster.Join(jctx, *join, cluster.WorkerConfig{
				Name: wname, ExecMeta: exec, MaxN: *maxN, MaxP: *maxP,
				Log: logger, Tracer: tracer,
			})
			if err == nil {
				break
			}
			select {
			case <-jctx.Done():
				fmt.Fprintln(stderr, "hmmd:", err)
				return 1
			case <-time.After(100 * time.Millisecond):
			}
		}
		go func() { workerErr <- wk.Serve(context.Background()) }()
	}

	httpSrv := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "hmmd:", err)
		return 1
	case err := <-workerErr:
		// The coordinator hung up (drain or death): finish local work
		// and exit cleanly so a supervisor can rejoin a fresh one.
		if err != nil {
			fmt.Fprintln(stderr, "hmmd:", err)
		}
	case <-ctx.Done():
	}

	// Graceful shutdown. A worker first drains its coordinator
	// connection (stop intake, flush in-flight results); a coordinator
	// drains HTTP intake first, then the cluster, so every admitted job
	// still reaches a worker before the goodbyes go out.
	logger.Info("hmmd: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if wk != nil {
		if err := wk.Stop(dctx); err != nil {
			fmt.Fprintln(stderr, "hmmd: worker drain:", err)
			code = 1
		}
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		fmt.Fprintln(stderr, "hmmd: http shutdown:", err)
		code = 1
	}
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(stderr, "hmmd: scheduler drain:", err)
		code = 1
	}
	if coord != nil {
		if err := coord.Drain(dctx); err != nil {
			fmt.Fprintln(stderr, "hmmd: cluster drain:", err)
			code = 1
		}
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "hmmd:", err)
		code = 1
	}
	logger.Info("hmmd: drained, exiting")
	return code
}

// orStandalone names the empty role for the startup log.
func orStandalone(role string) string {
	if role == "" {
		return "standalone"
	}
	return role
}
