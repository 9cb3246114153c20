package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hypermm"
)

// mustNew builds a Server or fails the test (New only errors on a bad
// calibration profile).
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func postMatmul(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/matmul", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestMatmulAutoMatchesBestAlgorithmAndReference(t *testing.T) {
	srv := mustNew(t, Config{Workers: 2, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, c := range []struct{ n, p int }{{16, 8}, {32, 8}, {64, 64}} {
		body := fmt.Sprintf(`{"n": %d, "p": %d, "algorithm": "auto", "seed": 7, "verify": true, "return_matrix": true}`, c.n, c.p)
		resp, data := postMatmul(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("n=%d p=%d: status %d: %s", c.n, c.p, resp.StatusCode, data)
		}
		var mr MatmulResponse
		if err := json.Unmarshal(data, &mr); err != nil {
			t.Fatal(err)
		}
		want, ok := hypermm.BestAlgorithm(float64(c.n), float64(c.p), 150, 3, hypermm.OnePort)
		if !ok {
			t.Fatalf("n=%d p=%d: no best algorithm", c.n, c.p)
		}
		if mr.Algorithm != want.Name() || !mr.Auto {
			t.Errorf("n=%d p=%d: served %s, BestAlgorithm says %s", c.n, c.p, mr.Algorithm, want.Name())
		}
		if mr.Verified == nil || !*mr.Verified {
			t.Errorf("n=%d p=%d: not verified", c.n, c.p)
		}
		// Differential check: the returned matrix must equal the local
		// reference product of the same seeded operands.
		A := hypermm.RandomMatrix(c.n, c.n, 7)
		B := hypermm.RandomMatrix(c.n, c.n, 8)
		ref := hypermm.MatMul(A, B)
		got := &hypermm.Matrix{Rows: c.n, Cols: c.n, Data: mr.C}
		if len(mr.C) != c.n*c.n {
			t.Fatalf("n=%d p=%d: returned matrix has %d values", c.n, c.p, len(mr.C))
		}
		if d := hypermm.MaxAbsDiff(got, ref); d > 1e-8*float64(c.n) {
			t.Errorf("n=%d p=%d: served product differs from reference by %g", c.n, c.p, d)
		}
		if mr.Ratio <= 0.5 || mr.Ratio >= 2 {
			t.Errorf("n=%d p=%d: sim/predicted ratio %g out of sane range", c.n, c.p, mr.Ratio)
		}
	}
}

func TestMatmulExplicitAlgorithmAndTrace(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postMatmul(t, ts, `{"n": 16, "p": 16, "algorithm": "cannon", "verify": true, "trace": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var mr MatmulResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Algorithm != "cannon" || mr.Auto {
		t.Errorf("served %s auto=%v", mr.Algorithm, mr.Auto)
	}
	if !strings.Contains(mr.Gantt, "timeline") || mr.TraceSum == "" {
		t.Error("trace requested but gantt/summary missing")
	}
}

func TestMatmulValidationAndErrorMapping(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2, MaxN: 64, MaxP: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},                                                                    // broken JSON
		{`{"n": 0, "p": 8}`, http.StatusBadRequest},                                                     // n out of range
		{`{"n": 16, "p": 128}`, http.StatusBadRequest},                                                  // p over MaxP
		{`{"n": 16, "p": 8, "ports": "zero"}`, http.StatusBadRequest},                                   // bad port model
		{`{"n": 16, "p": 8, "algorithm": "nope"}`, http.StatusBadRequest},                               // bad algorithm
		{`{"n": 2, "p": 16, "algorithm": "auto"}`, 422},                                                 // nothing applicable (p > n^3)
		{`{"n": 8, "p": 64, "algorithm": "berntsen"}`, 422},                                             // p > n^1.5
		{`{"n": 16, "p": 8, "a": [1, 2], "b": [3]}`, http.StatusBadRequest},                             // short operands
		{`{"n": 16, "p": 8, "deadline": 10}`, http.StatusGatewayTimeout},                                // simulated deadline
		{`{"n": 16, "p": 8, "fault": {"seed": 1, "drop": 1, "max_retries": 2}}`, http.StatusBadGateway}, // link down
	}
	for _, c := range cases {
		resp, data := postMatmul(t, ts, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("body %s: status %d, want %d (%s)", c.body, resp.StatusCode, c.want, data)
		}
	}

	// GET on a POST-only route.
	resp, err := http.Get(ts.URL + "/v1/matmul")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/matmul: status %d", resp.StatusCode)
	}
}

func TestMatmulFaultInjectionRecovers(t *testing.T) {
	// A light drop rate with the default retry budget: the protocol
	// recovers, the result still matches the reference.
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postMatmul(t, ts,
		`{"n": 16, "p": 8, "verify": true, "fault": {"seed": 42, "drop": 0.05}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var mr MatmulResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Simulated.Retries == 0 {
		t.Error("drop=0.05 run recorded no retries")
	}
	if mr.Verified == nil || !*mr.Verified {
		t.Error("faulted run not verified")
	}
}

func TestPlanEndpoint(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/plan?n=256&p=64")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var plan Plan
	if err := json.Unmarshal(data, &plan); err != nil {
		t.Fatal(err)
	}
	want, _ := hypermm.BestAlgorithm(256, 64, 150, 3, hypermm.OnePort)
	if plan.AlgorithmName != want.Name() {
		t.Errorf("plan chose %s, want %s", plan.AlgorithmName, want.Name())
	}
	if len(plan.Candidates) == 0 {
		t.Error("plan endpoint returned no diagnostics")
	}

	// Auto machine size: p omitted.
	resp, err = http.Get(ts.URL + "/v1/plan?n=256&tc=0.5")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto-p status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.P < 2 {
		t.Errorf("auto-p plan chose p=%g", plan.P)
	}

	// Bad input.
	resp, err = http.Get(ts.URL + "/v1/plan?n=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n: status %d", resp.StatusCode)
	}
}

func TestRegionMapEndpoint(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/regionmap?nsteps=21&psteps=11")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := string(data)
	// The one-port Figure 13 map always contains Cannon and 3D All
	// regions (letters from cost.Alg.Letter).
	if len(body) == 0 || !strings.Contains(body, "log") {
		t.Errorf("suspicious region map:\n%s", body)
	}

	resp, err = http.Get(ts.URL + "/v1/regionmap?nsteps=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("nsteps=1: status %d", resp.StatusCode)
	}
}

func TestMetricsEndpointAndAdmissionControl(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hold := make(chan struct{})
	entered := make(chan struct{}, 4)
	srv.sched.onExec = func() {
		entered <- struct{}{}
		<-hold
	}

	status := make(chan int, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/matmul", "application/json",
			strings.NewReader(`{"n": 16, "p": 8}`))
		if err != nil {
			status <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}
	go post()
	<-entered // worker holds request 1
	go post()
	waitFor(t, func() bool { return srv.metrics.QueueDepth() == 1 }) // request 2 queued

	// Saturated: the third request must be rejected with 429.
	resp, data := postMatmul(t, ts, `{"n": 16, "p": 8}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429 (%s)", resp.StatusCode, data)
	}

	close(hold)
	if s1, s2 := <-status, <-status; s1 != 200 || s2 != 200 {
		t.Fatalf("held requests finished with %d, %d", s1, s2)
	}

	// The scrape must expose queue depth, per-algorithm jobs, rejects
	// and the sim-vs-predicted ratio.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", mresp.StatusCode)
	}
	out := string(mdata)
	for _, want := range []string{
		"hmmd_queue_depth 0",
		`hmmd_jobs_total{algorithm="3dall"} 2`,
		"hmmd_rejects_total 1",
		"hmmd_sim_predicted_ratio_count 2",
		"hmmd_job_latency_seconds_count 2",
		"hmmd_plan_cache_hits_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q\n%s", want, out)
		}
	}
	// Both jobs ran on fresh machines: there is no machine pool to report.
	if strings.Contains(out, "hmmd_machine_pool") {
		t.Errorf("/metrics still exposes a machine-pool series\n%s", out)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if s := get("/healthz"); s != http.StatusOK {
		t.Fatalf("/healthz = %d", s)
	}

	// Hold one job in flight, then begin the drain: the in-flight job
	// must complete with 200 while new work is refused with 503.
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.sched.onExec = func() {
		entered <- struct{}{}
		<-hold
	}
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/matmul", "application/json",
			strings.NewReader(`{"n": 16, "p": 8, "verify": true}`))
		if err != nil {
			inflight <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-entered

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	waitFor(t, srv.sched.Draining)

	if s := get("/healthz"); s != http.StatusServiceUnavailable {
		t.Errorf("/healthz while draining = %d, want 503", s)
	}
	resp, data := postMatmul(t, ts, `{"n": 16, "p": 8}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("matmul while draining = %d, want 503 (%s)", resp.StatusCode, data)
	}

	close(hold)
	if s := <-inflight; s != http.StatusOK {
		t.Errorf("in-flight job across drain finished with %d, want 200", s)
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}
}

func TestMatmulInlineOperands(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// 2x2 identity times a chosen B: C must equal B exactly.
	var buf bytes.Buffer
	req := MatmulRequest{
		N: 2, P: 4, Algorithm: "cannon",
		A: []float64{1, 0, 0, 1}, B: []float64{5, 6, 7, 8},
		ReturnC: true,
	}
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 6, 7, 8}
	check := func(how string, status int, data []byte) {
		t.Helper()
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", how, status, data)
		}
		var mr MatmulResponse
		if err := json.Unmarshal(data, &mr); err != nil {
			t.Fatal(err)
		}
		if len(mr.C) != len(want) {
			t.Fatalf("%s: C = %v, want %v", how, mr.C, want)
		}
		for i, v := range mr.C {
			if v != want[i] {
				t.Fatalf("%s: C = %v, want %v", how, mr.C, want)
			}
		}
	}
	resp, data := postMatmul(t, ts, buf.String())
	check("with Content-Length", resp.StatusCode, data)

	// Without a Content-Length (chunked) the body is read to its end.
	r := httptest.NewRequest(http.MethodPost, "/v1/matmul", bytes.NewReader(buf.Bytes()))
	r.ContentLength = -1
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, r)
	check("chunked", rec.Code, rec.Body.Bytes())
}

// TestMatmulBodyLimit: bodies past 2·MaxN²·32 bytes + 1 MiB are
// refused with 413 — by Content-Length before anything is allocated,
// or once reading passes the limit when the length is unknown or
// understated — and a body of exactly the limit is served.
func TestMatmulBodyLimit(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2, MaxN: 16})
	limit := srv.cfg.maxBody()
	if limit != 2*16*16*32+1<<20 {
		t.Fatalf("limit %d", limit)
	}
	// A valid request padded with an unknown string field to size bytes.
	padded := func(size int64) string {
		head, tail := `{"n": 16, "p": 8, "pad": "`, `"}`
		return head + strings.Repeat("x", int(size)-len(head)-len(tail)) + tail
	}
	cases := []struct {
		name   string
		body   string
		length int64 // Content-Length; -1 is chunked
		want   int
	}{
		{"chunked, one byte over", padded(limit + 1), -1, http.StatusRequestEntityTooLarge},
		{"chunked, at the limit", padded(limit), -1, http.StatusOK},
		{"Content-Length over", padded(2 * limit), 2 * limit, http.StatusRequestEntityTooLarge},
		{"Content-Length of 1 TiB", `{"n": 16, "p": 8}`, 1 << 40, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodPost, "/v1/matmul", strings.NewReader(c.body))
		r.ContentLength = c.length
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, r)
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d (%.200s)", c.name, rec.Code, c.want, rec.Body.String())
			continue
		}
		if c.want != http.StatusRequestEntityTooLarge {
			continue
		}
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != fmt.Sprintf("request body over %d bytes", limit) {
			t.Errorf("%s: error body %q (%v)", c.name, rec.Body.String(), err)
		}
	}
}

// TestMatmulNonFiniteProduct: 1e300 operands overflow the product to
// +Inf, which JSON cannot carry; asking for it back is a 422, not a 200
// with an empty body. Without return_matrix the run is served.
func TestMatmulNonFiniteProduct(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := make([]float64, 16)
	for i := range big {
		big[i] = 1e300
	}
	for _, ret := range []bool{true, false} {
		body, err := json.Marshal(MatmulRequest{N: 4, P: 4, Algorithm: "cannon", A: big, B: big, ReturnC: ret})
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postMatmul(t, ts, string(body))
		if !ret {
			if resp.StatusCode != http.StatusOK {
				t.Errorf("without return_matrix: status %d: %s", resp.StatusCode, data)
			}
			continue
		}
		var e apiError
		if resp.StatusCode != http.StatusUnprocessableEntity || json.Unmarshal(data, &e) != nil || e.Error != "product is not finite" {
			t.Errorf("return_matrix: status %d, body %q; want 422 product is not finite", resp.StatusCode, data)
		}
	}
}

// TestWriteJSONUnencodable: a value JSON cannot encode is a 500 with
// the encoder's error, not the status asked for over an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	var e apiError
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil ||
		!strings.Contains(e.Error, "unsupported value") {
		t.Errorf("status %d, body %q; want 500 with the encoder's error", rec.Code, rec.Body.String())
	}
}
