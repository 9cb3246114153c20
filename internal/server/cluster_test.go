package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hypermm"
	"hypermm/internal/cluster"
)

// clusterServer builds a coordinator-fronted Server with one in-process
// cluster worker per exec, registered in order (w0 first).
func clusterServer(t *testing.T, cfg Config, execs ...cluster.ExecFunc) (*Server, *cluster.Coordinator, []*cluster.Worker) {
	t.Helper()
	coord, err := cluster.NewCoordinator(cluster.Config{
		Addr:          "127.0.0.1:0",
		ProbeInterval: 50 * time.Millisecond,
		RetryBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	var workers []*cluster.Worker
	for i, exec := range execs {
		w, err := cluster.Join(context.Background(), coord.Addr().String(), cluster.WorkerConfig{
			Name: fmt.Sprintf("w%d", i), Exec: exec,
		})
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve(context.Background())
		t.Cleanup(w.Abort)
		workers = append(workers, w)
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkerCount() != len(execs) {
		if time.Now().After(deadline) {
			t.Fatalf("worker count stuck at %d", coord.WorkerCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
	cfg.Cluster = coord
	return mustNew(t, cfg), coord, workers
}

// TestMatmulThroughCluster runs the full HTTP path with jobs routed to
// cluster workers: the response must match a standalone server's, the
// product must verify, and the cluster metrics family must appear.
func TestMatmulThroughCluster(t *testing.T) {
	srv, _, _ := clusterServer(t, Config{Workers: 2, QueueDepth: 4}, cluster.LocalExec, cluster.LocalExec)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"n": 32, "p": 16, "algorithm": "cannon", "seed": 7, "verify": true, "return_matrix": true}`
	resp, data := postMatmul(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var mr MatmulResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Verified == nil || !*mr.Verified {
		t.Error("cluster-routed product did not verify")
	}

	// Byte-identical to a local run of the same seeded job.
	local, err := hypermm.Run(hypermm.Cannon,
		hypermm.Config{P: 16, Ports: hypermm.OnePort, Ts: 150, Tw: 3, Tc: 0.5},
		hypermm.RandomMatrix(32, 32, 7), hypermm.RandomMatrix(32, 32, 8))
	if err != nil {
		t.Fatal(err)
	}
	if mr.Simulated.Elapsed != local.Elapsed {
		t.Errorf("Elapsed %g != local %g", mr.Simulated.Elapsed, local.Elapsed)
	}
	if len(mr.C) != len(local.C.Data) {
		t.Fatalf("product has %d words, want %d", len(mr.C), len(local.C.Data))
	}
	for i := range local.C.Data {
		if mr.C[i] != local.C.Data[i] {
			t.Fatalf("product word %d differs", i)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mresp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"hmmd_cluster_workers 2",
		"hmmd_cluster_completed_total 1",
		`hmmd_cluster_worker_jobs_total{worker=`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestWorkerKilledMidBatch is the kill-mid-batch drill over HTTP: a
// concurrent seeded batch runs through a coordinator fronting two
// workers, one of which dies while it holds a job. Abort closes the
// worker's job connection, which is what the kernel does to a killed
// worker process's socket. Every reply must still be a verified 200,
// the dead worker must leave the gauge, and a failover must be counted.
func TestWorkerKilledMidBatch(t *testing.T) {
	started := make(chan struct{}, 1)
	stuck := func(ctx context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		// Never answers; the connection death is the signal, and it
		// cancels ctx.
		<-ctx.Done()
		return nil, ctx.Err()
	}
	// Both workers start at load 0 and the tie goes to the first
	// registration, so the batch's first job lands on the stuck worker.
	srv, _, workers := clusterServer(t, Config{Workers: 4, QueueDepth: 8}, stuck, cluster.LocalExec)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const batch = 8
	status := make([]int, batch)
	bodies := make([][]byte, batch)
	var wg sync.WaitGroup
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postMatmul(t, ts, fmt.Sprintf(
				`{"n": 32, "p": 16, "algorithm": "cannon", "seed": %d, "verify": true}`, i+1))
			status[i], bodies[i] = resp.StatusCode, data
		}(i)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("no job reached the stuck worker")
	}
	workers[0].Abort()
	wg.Wait()

	for i := range status {
		if status[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status[i], bodies[i])
		}
		var mr MatmulResponse
		if err := json.Unmarshal(bodies[i], &mr); err != nil {
			t.Fatal(err)
		}
		if mr.Verified == nil || !*mr.Verified {
			t.Errorf("request %d did not verify", i)
		}
	}
	_, raw := getBody(t, ts, "/metrics")
	metrics := string(raw)
	if !strings.Contains(metrics, "\nhmmd_cluster_workers 1\n") {
		t.Error("/metrics does not show the dead worker gone (want hmmd_cluster_workers 1)")
	}
	failovers := 0
	for _, line := range strings.Split(metrics, "\n") {
		fmt.Sscanf(line, "hmmd_cluster_failovers_total %d", &failovers)
	}
	if failovers < 1 {
		t.Errorf("hmmd_cluster_failovers_total = %d, want >= 1", failovers)
	}
}

// TestTraceJobsRunLocally: per-node timelines don't travel the wire, so
// a trace request must execute in-process even on a coordinator.
func TestTraceJobsRunLocally(t *testing.T) {
	srv, coord, _ := clusterServer(t, Config{Workers: 1, QueueDepth: 2}, cluster.LocalExec)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postMatmul(t, ts, `{"n": 16, "p": 16, "algorithm": "cannon", "trace": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var mr MatmulResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Gantt == "" || mr.TraceSum == "" {
		t.Error("trace request lost its timeline")
	}
	if st := coord.Stats(); st.Dispatched != 0 {
		t.Errorf("trace job went over the wire: %+v", st)
	}
}

// TestClusterDrainAnswers503 pins the drain contract at the HTTP layer:
// while the coordinator drains, new matmul requests get 503 and the
// in-flight one still completes with 200.
func TestClusterDrainAnswers503(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	gated := func(ctx context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
		started <- struct{}{}
		<-release
		return hypermm.Run(alg, cfg, A, B)
	}
	coord, err := cluster.NewCoordinator(cluster.Config{Addr: "127.0.0.1:0", RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	w, err := cluster.Join(context.Background(), coord.Addr().String(), cluster.WorkerConfig{Name: "w0", Exec: gated})
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(context.Background())
	t.Cleanup(w.Abort)
	for coord.WorkerCount() != 1 {
		time.Sleep(2 * time.Millisecond)
	}
	srv := mustNew(t, Config{Workers: 2, QueueDepth: 4, Cluster: coord})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var inflightStatus int
	go func() {
		defer wg.Done()
		resp, _ := postMatmul(t, ts, `{"n": 16, "p": 16, "algorithm": "cannon"}`)
		inflightStatus = resp.StatusCode
	}()
	<-started

	go coord.Drain(context.Background())
	deadline := time.Now().Add(5 * time.Second)
	for !coord.Stats().Draining {
		if time.Now().After(deadline) {
			t.Fatal("drain flag never set")
		}
		time.Sleep(time.Millisecond)
	}

	resp, data := postMatmul(t, ts, `{"n": 16, "p": 16, "algorithm": "cannon"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d (%s), want 503", resp.StatusCode, data)
	}

	close(release)
	wg.Wait()
	if inflightStatus != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", inflightStatus)
	}
}

// TestExecuteMatchesRun pins Server.Execute — the worker-side ExecFunc
// adapter — against a direct hypermm.Run.
func TestExecuteMatchesRun(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	A := hypermm.RandomMatrix(16, 16, 3)
	B := hypermm.RandomMatrix(16, 16, 4)
	cfg := hypermm.Config{P: 16, Ports: hypermm.OnePort, Ts: 150, Tw: 3, Tc: 0.5}
	local, err := hypermm.Run(hypermm.Cannon, cfg, A, B)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.Execute(context.Background(), hypermm.Cannon, cfg, A, B)
	if err != nil {
		t.Fatal(err)
	}
	if got.Elapsed != local.Elapsed || got.Comm != local.Comm {
		t.Errorf("Execute diverged: %+v/%g vs %+v/%g", got.Comm, got.Elapsed, local.Comm, local.Elapsed)
	}
	for i := range local.C.Data {
		if got.C.Data[i] != local.C.Data[i] {
			t.Fatalf("word %d differs", i)
		}
	}

	// A config the planner refuses (p=6 is not a hypercube) must still
	// execute under the bare-plan fallback, exactly like hypermm.Run.
	odd := hypermm.Config{P: 6, Ports: hypermm.OnePort, Ts: 150, Tw: 3}
	wantOdd, wantErr := hypermm.Run(hypermm.Simple, odd, A, B)
	gotOdd, gotErr := srv.Execute(context.Background(), hypermm.Simple, odd, A, B)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("bare-plan fallback: err %v vs local %v", gotErr, wantErr)
	}
	if wantErr == nil && gotOdd.Elapsed != wantOdd.Elapsed {
		t.Error("bare-plan fallback diverged")
	}
}
