package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"hypermm/internal/obs"
)

// TestTraceE2EAcrossProcesses pins the headline observability
// acceptance: a matmul POSTed to a coordinator fronting two workers
// yields ONE retrievable trace that covers handler → dispatch →
// worker-execute across the tiers — the worker's span recorded under
// its own process label, shipped home in the job reply, nested inside
// the coordinator's attempt on the shared clock.
func TestTraceE2EAcrossProcesses(t *testing.T) {
	_, coordReady := startDaemon(t, "-role", "coordinator",
		"-addr", "127.0.0.1:0", "-cluster-addr", "127.0.0.1:0")
	clusterAddr := strings.TrimPrefix(awaitReady(t, coordReady), "cluster=")
	base := "http://" + awaitReady(t, coordReady)

	for _, w := range []string{"tw1", "tw2"} {
		_, wReady := startDaemon(t, "-role", "worker", "-join", clusterAddr,
			"-addr", "127.0.0.1:0", "-name", w, "-workers", "2")
		awaitReady(t, wReady)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(metricsText(t, base), "hmmd_cluster_workers 2") {
		if time.Now().After(deadline) {
			t.Fatal("workers never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Post(base+"/v1/matmul", "application/json",
		strings.NewReader(`{"n": 32, "p": 16, "algorithm": "cannon"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matmul status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Trace-Id")
	if !obs.ValidTraceID(id) {
		t.Fatalf("X-Trace-Id %q is not a valid trace ID", id)
	}

	tresp, err := http.Get(base + "/v1/trace/" + id + "?format=spans")
	if err != nil {
		t.Fatal(err)
	}
	tbody, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/trace status %d: %s", tresp.StatusCode, tbody)
	}
	var td obs.TraceData
	if err := json.Unmarshal(tbody, &td); err != nil {
		t.Fatal(err)
	}
	byName := map[string]obs.SpanData{}
	for _, s := range td.Spans {
		if s.TraceID != id {
			t.Errorf("span %s carries trace %q, want the shared ID %q", s.Name, s.TraceID, id)
		}
		byName[s.Name] = s
	}
	for _, name := range []string{"http.matmul", "cluster.dispatch", "cluster.attempt", "worker.execute"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("trace missing span %q, got %+v", name, td.Spans)
		}
	}
	handler := byName["http.matmul"]
	dispatch := byName["cluster.dispatch"]
	attempt := byName["cluster.attempt"]
	execute := byName["worker.execute"]
	if handler.Process != "hmmd-coordinator" {
		t.Errorf("handler span process %q, want hmmd-coordinator", handler.Process)
	}
	if !strings.HasPrefix(execute.Process, "hmmd-worker/tw") {
		t.Errorf("execute span process %q, want hmmd-worker/tw1 or tw2", execute.Process)
	}
	// The cross-process hop: dispatch parents the attempt, the attempt
	// parents the worker's execute span recorded in the other "process".
	if attempt.Parent != dispatch.SpanID || execute.Parent != attempt.SpanID {
		t.Errorf("span parentage broken: attempt parent %q (dispatch %q), execute parent %q (attempt %q)",
			attempt.Parent, dispatch.SpanID, execute.Parent, attempt.SpanID)
	}
	// Monotonic, non-overlapping nesting on the shared host clock.
	chain := []obs.SpanData{handler, dispatch, attempt, execute}
	for i := 1; i < len(chain); i++ {
		out, in := chain[i-1], chain[i]
		if !(out.Start <= in.Start && in.Start <= in.End && in.End <= out.End) {
			t.Errorf("span %s [%d, %d] does not nest in %s [%d, %d]",
				in.Name, in.Start, in.End, out.Name, out.Start, out.End)
		}
	}
	if got := attempt.Attrs["outcome"]; got != "ok" {
		t.Errorf("attempt outcome %v, want ok", got)
	}
}

// TestVersionFlag pins `hmmd -version`: exit 0, build info on stdout,
// before any listener or logger comes up.
func TestVersionFlag(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-version"}, &out, &errb, nil); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "hmmd ") || !strings.Contains(out.String(), "go1.") {
		t.Errorf("-version output %q, want hmmd <module> <version> (built with go1...)", out.String())
	}
}

// TestPprofAndChromeTraceE2E boots the daemon through run() with
// -pprof: the profiling endpoints must be mounted, and a traced
// request's default (Chrome trace-event) trace must carry a display
// unit and the handler's complete event.
func TestPprofAndChromeTraceE2E(t *testing.T) {
	base, shutdown := bootDaemon(t, "-pprof")

	resp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/matmul", "application/json",
		strings.NewReader(`{"n": 64, "p": 64, "trace": true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matmul status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Trace-Id")
	tresp, err := http.Get(base + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	tbody, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/trace/%s status %d: %s", id, tresp.StatusCode, tbody)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(tbody, &chrome); err != nil {
		t.Fatalf("trace is not Chrome trace-event JSON: %v", err)
	}
	if chrome.DisplayTimeUnit == "" {
		t.Error("trace has no displayTimeUnit")
	}
	root := false
	for _, ev := range chrome.TraceEvents {
		root = root || (ev.Ph == "X" && ev.Name == "http.matmul")
	}
	if !root {
		t.Errorf("trace has no http.matmul complete event: %s", tbody)
	}

	shutdown()
}
