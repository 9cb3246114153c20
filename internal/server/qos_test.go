package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hypermm"
	"hypermm/internal/qos"
)

// twoTenantConfig is the deterministic stress fixture: a paced
// interactive tenant and a flooding best-effort tenant, equal weights,
// no quotas (the tests drive shedding, not buckets).
func twoTenantConfig(t *testing.T) *qos.Config {
	t.Helper()
	c, err := qos.Parse([]byte(`{
	  "version": 1,
	  "tenants": {
	    "paced": {"class": "interactive"},
	    "flood": {"class": "best-effort"}
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// qosScheduler builds a scheduler with a configured registry, the way
// server.New wires it.
func qosScheduler(t *testing.T, workers, depth int, cfg *qos.Config, m *Metrics) *Scheduler {
	t.Helper()
	s := NewScheduler(workers, depth, m)
	s.reg = qos.NewRegistry(cfg, nil)
	return s
}

// qosJob attributes a test job to a registry tenant at its class.
func qosJob(t *testing.T, s *Scheduler, tenant string) Job {
	t.Helper()
	job := testJob(t)
	tn := s.reg.ByName(tenant)
	if tn == nil {
		t.Fatalf("unknown tenant %q", tenant)
	}
	job.Tenant, job.Class = tn, tn.Class
	return job
}

// TestQoSStarvationResistance is the deterministic two-tenant overload
// drill: a flooding best-effort tenant fills the queue, a paced
// interactive tenant keeps submitting. The paced tenant must see every
// job admitted (its arrivals shed the flood), dispatch strictly before
// the surviving flood backlog, and the flood's evictions must be
// visible in its shed counter.
func TestQoSStarvationResistance(t *testing.T) {
	m := NewMetrics()
	s := qosScheduler(t, 1, 4, twoTenantConfig(t), m)
	defer s.Drain(context.Background())
	step := make(chan struct{})
	s.onExec = func() { <-step }

	flood := s.reg.ByName("flood")
	paced := s.reg.ByName("paced")

	type outcome struct {
		tenant string
		err    error
	}
	results := make(chan outcome, 16)
	submit := func(tenant string) {
		job := qosJob(t, s, tenant)
		go func() {
			_, err := s.Submit(context.Background(), job)
			results <- outcome{tenant, err}
		}()
	}

	inflight := func(tenant string) int {
		for _, st := range s.QoSStats() {
			if st.Name == tenant {
				return st.Inflight
			}
		}
		return 0
	}

	// Flood: one job held by the worker plus four filling the queue.
	submit("flood")
	waitFor(t, func() bool { return inflight("flood") == 1 })
	for i := 0; i < 4; i++ {
		submit("flood")
	}
	waitFor(t, func() bool { return m.QueueDepth() == 4 })

	// Paced: three interactive arrivals on the full queue. Each must be
	// admitted by evicting a flood item (newest first).
	for i := 0; i < 3; i++ {
		submit("paced")
	}
	shed := 0
	for shed < 3 {
		o := <-results
		if o.tenant != "flood" {
			t.Fatalf("%s job failed during flood shedding: %v", o.tenant, o.err)
		}
		if !errors.Is(o.err, ErrShed) {
			t.Fatalf("shed flood job: err = %v, want ErrShed", o.err)
		}
		var ra *RetryAfterError
		if !errors.As(o.err, &ra) || ra.After <= 0 {
			t.Fatalf("shed rejection carries no retry hint: %v", o.err)
		}
		shed++
	}
	if got := flood.Sheds.Load(); got != 3 {
		t.Fatalf("flood sheds = %d, want 3", got)
	}
	if got := paced.Sheds.Load(); got != 0 {
		t.Fatalf("paced sheds = %d, want 0", got)
	}

	// Release executions one at a time: after the held flood job, the
	// three paced jobs must all run before the surviving flood job.
	step <- struct{}{} // the flood job the worker already held
	waitFor(t, func() bool { return flood.Jobs.Load() == 1 })
	for i := int64(1); i <= 3; i++ {
		step <- struct{}{}
		waitFor(t, func() bool { return paced.Jobs.Load() == i })
		if flood.Jobs.Load() != 1 {
			t.Fatalf("flood job ran before paced backlog drained (paced done %d)", i)
		}
	}
	step <- struct{}{} // the surviving flood job
	waitFor(t, func() bool { return flood.Jobs.Load() == 2 })

	// Every submitted job resolved: 3 paced + 2 flood succeeded, 3 shed.
	ok := 0
	for i := 0; i < 5; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("%s job failed: %v", o.tenant, o.err)
		}
		ok++
	}
	if ok != 5 {
		t.Fatalf("completed %d jobs, want 5", ok)
	}
}

// TestQoSDrainUnderLoadAcrossClasses pins that Drain with jobs queued
// in every class completes them all and returns — never hangs — and
// that post-drain submissions get ErrDraining.
func TestQoSDrainUnderLoadAcrossClasses(t *testing.T) {
	c, err := qos.Parse([]byte(`{
	  "version": 1,
	  "tenants": {
	    "inter": {"class": "interactive"},
	    "batch": {"class": "batch"},
	    "be":    {"class": "best-effort", "max_concurrency": 1}
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	s := qosScheduler(t, 2, 9, c, m)
	hold := make(chan struct{})
	s.onExec = func() { <-hold }

	var wg sync.WaitGroup
	errs := make(chan error, 9)
	for _, tenant := range []string{"inter", "batch", "be"} {
		for i := 0; i < 3; i++ {
			job := qosJob(t, s, tenant)
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := s.Submit(context.Background(), job)
				errs <- err
			}()
		}
	}
	// Both workers held, the rest queued across the three classes.
	waitFor(t, func() bool { return m.QueueDepth() == 7 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, s.Draining)
	if _, err := s.Submit(context.Background(), testJob(t)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}

	close(hold)
	if err := <-drained; err != nil {
		t.Fatalf("drain under cross-class load: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("admitted job failed across drain: %v", err)
		}
	}
}

// TestRetryAfterOnSaturation is the 429 regression: a saturated queue
// must answer 429 with a Retry-After header, QoS configured or not.
func TestRetryAfterOnSaturation(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	hold := make(chan struct{})
	entered := make(chan struct{}, 2) // one send per held job
	srv.sched.onExec = func() { entered <- struct{}{}; <-hold }
	// Cleanups run last-in first-out: hold is released before ts.Close
	// waits on the held requests, so a failed assertion cannot hang the
	// test binary.
	release := sync.OnceFunc(func() { close(hold) })
	t.Cleanup(ts.Close)
	t.Cleanup(release)

	status := make(chan int, 2)
	post := func() { // off the test goroutine: report, never t.Fatal
		resp, err := http.Post(ts.URL+"/v1/matmul", "application/json", strings.NewReader(`{"n": 16, "p": 8}`))
		if err != nil {
			status <- -1
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}
	go post()
	<-entered // the worker holds the first job...
	go post() // ...so the second can only queue, never be refused
	waitFor(t, func() bool { return srv.metrics.QueueDepth() == 1 })

	resp, data := postMatmul(t, ts, `{"n": 16, "p": 8}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d: %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("saturated 429 Retry-After = %q, want a positive whole-second hint", ra)
	}
	release()
	if s1, s2 := <-status, <-status; s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("held requests finished with %d, %d", s1, s2)
	}
}

// quotaConfig builds a QoS policy whose tenant can afford exactly one
// job of the given predicted cost before its bucket runs dry.
func quotaConfig(t *testing.T, cost float64) *qos.Config {
	t.Helper()
	raw := fmt.Sprintf(`{
	  "version": 1,
	  "tenants": {
	    "acme": {"keys": ["k-acme"], "class": "interactive", "rate": 1e-9, "burst": %g}
	  }
	}`, cost/2)
	c, err := qos.Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// predictedCost plans the standard test request and returns its
// predicted simulated time — the amount a submission debits.
func predictedCost(t *testing.T, srv *Server) float64 {
	t.Helper()
	plan, err := srv.planner.Plan(PlanRequest{N: 16, P: 8, Ts: 150, Tw: 3, Tc: 0.5, Ports: hypermm.OnePort})
	if err != nil {
		t.Fatal(err)
	}
	return plan.PredictedTime
}

// TestQuotaDebitRejectAndMetrics drives one tenant's bucket into debt:
// the first request is admitted (overdraft), the second answers 429
// with Retry-After, and the hmmd_qos_* metrics expose the debt, the
// reject, and the completed job per tenant.
func TestQuotaDebitRejectAndMetrics(t *testing.T) {
	probe := mustNew(t, Config{Workers: 1, QueueDepth: 1})
	cfg := quotaConfig(t, predictedCost(t, probe))
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4, QoS: cfg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := func() (*http.Response, []byte) {
		t.Helper()
		hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/matmul", strings.NewReader(`{"n": 16, "p": 8}`))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("X-API-Key", "k-acme")
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp, data
	}

	resp, data := req()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp.StatusCode, data)
	}
	resp, data = req()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota request: status %d: %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("quota 429 without Retry-After")
	}
	if !strings.Contains(string(data), "quota") {
		t.Fatalf("quota 429 body %s does not name the quota", data)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mdata, _ := io.ReadAll(mresp.Body)
	metrics := string(mdata)
	for _, want := range []string{
		`hmmd_qos_jobs_total{tenant="acme"} 1`,
		`hmmd_qos_quota_rejects_total{tenant="acme"} 1`,
		`hmmd_qos_sheds_total{tenant="acme"} 0`,
		`hmmd_qos_queue_depth{tenant=`,
		`hmmd_qos_debt{tenant="acme"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// /v1/qos serves the policy plus the same per-tenant accounting.
	qresp, err := http.Get(ts.URL + "/v1/qos")
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	var qbody struct {
		Config  *qos.Config       `json:"config"`
		Tenants []qos.TenantStats `json:"tenants"`
	}
	if err := json.NewDecoder(qresp.Body).Decode(&qbody); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tn := range qbody.Tenants {
		if tn.Name == "acme" && tn.QuotaRejects == 1 && tn.Debt > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("/v1/qos tenants = %+v, want acme with 1 quota reject and debt", qbody.Tenants)
	}
}

// TestInfeasibleDeadlineRejectedUpFront pins cost-model admission: a
// deadline below the predicted time answers 504 before any execution.
func TestInfeasibleDeadlineRejectedUpFront(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2, QoS: twoTenantConfig(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/matmul",
		strings.NewReader(`{"n": 16, "p": 8, "deadline": 0.001}`))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("X-Tenant", "paced")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("infeasible deadline: status %d: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "predicted") {
		t.Fatalf("infeasible 504 body %s does not explain the prediction", data)
	}
	if got := srv.qosReg.ByName("paced").Infeasible.Load(); got != 1 {
		t.Fatalf("paced infeasible counter = %d, want 1", got)
	}
	// Without a QoS policy the same request executes (and then misses
	// its simulated deadline at run time) — admission stays out of the
	// way, preserving pre-QoS behavior.
	plain := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	resp2, data2 := postMatmul(t, tsPlain, `{"n": 16, "p": 8, "deadline": 0.001}`)
	if resp2.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("no-QoS tiny deadline: status %d: %s", resp2.StatusCode, data2)
	}
	if strings.Contains(string(data2), "predicted time exceeds") {
		t.Fatalf("no-QoS server used admission rejection: %s", data2)
	}
}

// TestClassDemotionOnly pins the class ceiling: a tenant may demote a
// request below its class but cannot claim a higher one.
func TestClassDemotionOnly(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2, QoS: twoTenantConfig(t)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	send := func(tenant, class string) *http.Response {
		t.Helper()
		body := fmt.Sprintf(`{"n": 16, "p": 8, "class": %q}`, class)
		hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/matmul", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := send("paced", "batch"); resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive tenant demoting to batch: status %d", resp.StatusCode)
	}
	if resp := send("flood", "interactive"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("best-effort tenant claiming interactive: status %d, want 400", resp.StatusCode)
	}
}
