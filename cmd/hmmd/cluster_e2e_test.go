package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// daemon boots one run() loop and returns its ready-channel messages.
type daemon struct {
	stdout, stderr *bytes.Buffer
	mu             *sync.Mutex
	exited         chan int
}

func startDaemon(t *testing.T, args ...string) (*daemon, chan string) {
	t.Helper()
	d := &daemon{
		stdout: &bytes.Buffer{}, stderr: &bytes.Buffer{},
		mu: &sync.Mutex{}, exited: make(chan int, 1),
	}
	ready := make(chan string, 2) // coordinator sends cluster addr then HTTP addr
	go func() {
		d.exited <- run(args, lockedWriter{d.mu, d.stdout}, lockedWriter{d.mu, d.stderr}, ready)
	}()
	return d, ready
}

func awaitReady(t *testing.T, ready chan string) string {
	t.Helper()
	select {
	case s := <-ready:
		return s
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start")
		return ""
	}
}

// TestClusterRolesE2E boots a coordinator and two workers through the
// real daemon entrypoint, runs matmuls over HTTP (sharded across the
// workers), checks the coordinator's cluster metrics, then SIGTERMs the
// whole process group and requires every role to drain cleanly.
//
// All three daemons share this test process, so one SIGTERM (caught by
// each run loop's signal.NotifyContext) drains them all at once. The
// kill-mid-batch drill is internal/server's TestWorkerKilledMidBatch.
func TestClusterRolesE2E(t *testing.T) {
	coordD, coordReady := startDaemon(t, "-role", "coordinator",
		"-addr", "127.0.0.1:0", "-cluster-addr", "127.0.0.1:0")
	clusterAddr := awaitReady(t, coordReady)
	if !strings.HasPrefix(clusterAddr, "cluster=") {
		t.Fatalf("first ready message %q, want cluster=<addr>", clusterAddr)
	}
	clusterAddr = strings.TrimPrefix(clusterAddr, "cluster=")
	httpAddr := awaitReady(t, coordReady)
	base := "http://" + httpAddr

	w1, w1Ready := startDaemon(t, "-role", "worker", "-join", clusterAddr,
		"-addr", "127.0.0.1:0", "-name", "w1", "-workers", "2")
	awaitReady(t, w1Ready)
	w2, w2Ready := startDaemon(t, "-role", "worker", "-join", clusterAddr,
		"-addr", "127.0.0.1:0", "-name", "w2", "-workers", "2")
	awaitReady(t, w2Ready)

	// Wait until both workers registered.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("workers never registered")
		}
		if strings.Contains(metricsText(t, base), "hmmd_cluster_workers 2") {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A small sharded batch; every response must verify.
	for i := 0; i < 6; i++ {
		resp, err := http.Post(base+"/v1/matmul", "application/json",
			strings.NewReader(`{"n": 64, "p": 16, "algorithm": "cannon", "verify": true}`))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, data)
		}
		var mr struct {
			Verified *bool `json:"verified"`
		}
		if err := json.Unmarshal(data, &mr); err != nil {
			t.Fatal(err)
		}
		if mr.Verified == nil || !*mr.Verified {
			t.Fatalf("request %d did not verify", i)
		}
	}
	mtext := metricsText(t, base)
	if !strings.Contains(mtext, "hmmd_cluster_completed_total 6") {
		t.Errorf("metrics missing completed jobs:\n%s", clusterLines(mtext))
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*daemon{"coordinator": coordD, "w1": w1, "w2": w2} {
		select {
		case code := <-d.exited:
			if code != 0 {
				d.mu.Lock()
				t.Errorf("%s exited %d\nstdout: %s\nstderr: %s", name, code, d.stdout.String(), d.stderr.String())
				d.mu.Unlock()
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s did not exit after SIGTERM", name)
		}
	}
}

func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func clusterLines(metrics string) string {
	var out []string
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "hmmd_cluster_") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
