package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// bootDaemon starts hmmd via run() with the given extra flags and
// returns its base URL plus a shutdown func that SIGTERMs it and
// asserts a clean exit.
func bootDaemon(t *testing.T, extra ...string) (string, func()) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	var mu sync.Mutex
	ready := make(chan string, 1)
	exited := make(chan int, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, extra...)
	go func() {
		exited <- run(args, lockedWriter{&mu, &stdout}, lockedWriter{&mu, &stderr}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start")
	}
	return "http://" + addr, func() {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-exited:
			if code != 0 {
				mu.Lock()
				defer mu.Unlock()
				t.Fatalf("run exited %d\nstdout: %s\nstderr: %s",
					code, stdout.String(), stderr.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not exit after SIGTERM")
		}
	}
}

func doMatmul(t *testing.T, base string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/v1/matmul",
		strings.NewReader(`{"n": 64, "p": 64}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

// TestQoSServingE2E boots the daemon with -qos testdata/qos.json and
// exercises the whole tenant path over HTTP: header resolution, quota
// debiting with Retry-After, the /v1/qos policy endpoint and the
// hmmd_qos_* metric family.
func TestQoSServingE2E(t *testing.T) {
	base, shutdown := bootDaemon(t, "-qos", filepath.Join("testdata", "qos.json"))

	// A named tenant with no quota serves normally.
	resp, body := doMatmul(t, base, map[string]string{"X-Tenant": "paced"})
	if resp.StatusCode != 200 {
		t.Fatalf("paced matmul = %d: %s", resp.StatusCode, body)
	}

	// acme's bucket (burst 1, negligible refill) admits one job into
	// overdraft, then refuses with 429 + Retry-After.
	resp, body = doMatmul(t, base, map[string]string{"X-API-Key": "k-acme"})
	if resp.StatusCode != 200 {
		t.Fatalf("first acme matmul = %d: %s", resp.StatusCode, body)
	}
	resp, body = doMatmul(t, base, map[string]string{"X-API-Key": "k-acme"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second acme matmul = %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("quota 429 Retry-After = %q, want a positive number of seconds", ra)
	}
	if !strings.Contains(string(body), "quota") {
		t.Errorf("quota 429 body does not say quota: %s", body)
	}

	// The metric family reports per-tenant counters.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`hmmd_qos_jobs_total{tenant="acme"} 1`,
		`hmmd_qos_quota_rejects_total{tenant="acme"} 1`,
		`hmmd_qos_jobs_total{tenant="paced"} 1`,
		`hmmd_qos_queue_depth{tenant=`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /v1/qos serves the policy and live stats.
	qresp, err := http.Get(base + "/v1/qos")
	if err != nil {
		t.Fatal(err)
	}
	qbody, _ := io.ReadAll(qresp.Body)
	qresp.Body.Close()
	if qresp.StatusCode != 200 {
		t.Fatalf("/v1/qos = %d: %s", qresp.StatusCode, qbody)
	}
	var qos struct {
		Config struct {
			Version int `json:"version"`
		} `json:"config"`
		Tenants []struct {
			Name         string
			Jobs         int64
			QuotaRejects int64
			Debt         float64
		} `json:"tenants"`
	}
	if err := json.Unmarshal(qbody, &qos); err != nil {
		t.Fatalf("/v1/qos not JSON: %v\n%s", err, qbody)
	}
	if qos.Config.Version != 1 {
		t.Errorf("/v1/qos config version = %d, want 1", qos.Config.Version)
	}
	found := false
	for _, ts := range qos.Tenants {
		if ts.Name == "acme" {
			found = true
			if ts.QuotaRejects != 1 || ts.Debt <= 0 {
				t.Errorf("acme stats = %+v, want 1 quota reject and positive debt", ts)
			}
		}
	}
	if !found {
		t.Error("/v1/qos has no acme tenant")
	}

	shutdown()
}

// TestQoSClusterE2E boots a coordinator and a worker, both with
// -qos testdata/qos.json: one request per tenant, named by X-Tenant,
// must answer 200 through the cluster, and both tiers' /metrics must
// account it to that tenant.
func TestQoSClusterE2E(t *testing.T) {
	conf := filepath.Join("testdata", "qos.json")
	coordD, coordReady := startDaemon(t, "-role", "coordinator", "-qos", conf,
		"-addr", "127.0.0.1:0", "-cluster-addr", "127.0.0.1:0")
	clusterAddr := strings.TrimPrefix(awaitReady(t, coordReady), "cluster=")
	base := "http://" + awaitReady(t, coordReady)
	wD, wReady := startDaemon(t, "-role", "worker", "-qos", conf, "-join", clusterAddr,
		"-addr", "127.0.0.1:0", "-name", "qw1", "-workers", "2")
	wBase := "http://" + awaitReady(t, wReady)
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(metricsText(t, base), "hmmd_cluster_workers 1") {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	tenants := []string{"acme", "flood", "paced"}
	for _, tenant := range tenants {
		resp, body := doMatmul(t, base, map[string]string{"X-Tenant": tenant})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s matmul = %d: %s", tenant, resp.StatusCode, body)
		}
	}
	coordMetrics, workerMetrics := metricsText(t, base), metricsText(t, wBase)
	if !strings.Contains(coordMetrics, "hmmd_cluster_completed_total 3") {
		t.Errorf("jobs did not run on the worker:\n%s", clusterLines(coordMetrics))
	}
	for _, tenant := range tenants {
		want := `hmmd_qos_jobs_total{tenant="` + tenant + `"} 1`
		if !strings.Contains(coordMetrics, want) {
			t.Errorf("coordinator /metrics missing %q", want)
		}
		if !strings.Contains(workerMetrics, want) {
			t.Errorf("worker /metrics missing %q", want)
		}
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*daemon{"coordinator": coordD, "worker": wD} {
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

// TestQoSEndpointAbsentWithoutFlag: without -qos the daemon serves
// single-tenant FIFO and /v1/qos is a 404, so operators can tell at a
// glance whether a policy is loaded.
func TestQoSEndpointAbsentWithoutFlag(t *testing.T) {
	base, shutdown := bootDaemon(t)
	resp, err := http.Get(base + "/v1/qos")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/qos without -qos = %d, want 404", resp.StatusCode)
	}
	shutdown()
}

// TestBadQoSConfig: an unreadable or invalid -qos file must refuse to
// start with exit 1, never serve with a half-loaded policy.
func TestBadQoSConfig(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-qos", "/nonexistent/qos.json"}, &out, &out, nil); code != 1 {
		t.Errorf("missing qos config exit = %d, want 1", code)
	}
	if out.Len() == 0 {
		t.Error("no error output for missing qos config")
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version": 1, "tenants": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-qos", bad}, &out, &out, nil); code != 1 {
		t.Errorf("empty-tenant qos config exit = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "tenants") {
		t.Errorf("qos error not reported:\n%s", out.String())
	}
}
