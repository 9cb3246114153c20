package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWorsening(t *testing.T) {
	if got := worsening("higher", 100, 90); got != 0.1 {
		t.Errorf("throughput down 10%%: worsening = %v", got)
	}
	if got := worsening("lower", 100, 90); got != -0.1 {
		t.Errorf("latency down 10%%: worsening = %v", got)
	}
	if got := worsening("lower", 0, 5); got != 0 {
		t.Errorf("a zero base has no relative worsening, got %v", got)
	}
}

func TestCompareResults(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []specMetric{
		{Name: "req_per_s", Better: "higher", Bound: 0.10},
		{Name: "latency_p50_ms", Better: "lower", Bound: 0.10},
		{Name: "sim_time", Better: "lower", Bound: 1e-9},
	}}
	base := map[string]map[string]float64{"w": {"req_per_s": 1000, "latency_p50_ms": 2, "sim_time": 32828}}
	for _, c := range []struct {
		name string
		b    map[string]float64
		ok   bool
		want string
	}{
		{"same", map[string]float64{"req_per_s": 1000, "latency_p50_ms": 2, "sim_time": 32828}, true, ""},
		{"within bounds", map[string]float64{"req_per_s": 950, "latency_p50_ms": 2.1, "sim_time": 32828}, true, ""},
		{"better", map[string]float64{"req_per_s": 2000, "latency_p50_ms": 1, "sim_time": 32828}, true, ""},
		{"throughput regressed", map[string]float64{"req_per_s": 880, "latency_p50_ms": 2, "sim_time": 32828}, false, "FAIL"},
		{"latency regressed", map[string]float64{"req_per_s": 1000, "latency_p50_ms": 2.3, "sim_time": 32828}, false, "FAIL"},
		{"simulated time moved, even for the better", map[string]float64{"req_per_s": 1000, "latency_p50_ms": 2, "sim_time": 32827}, false, "must be equal"},
		{"metric missing", map[string]float64{"req_per_s": 1000, "sim_time": 32828}, false, "one side only"},
	} {
		var out bytes.Buffer
		ok := compareResults(&out, spec, base, map[string]map[string]float64{"w": c.b})
		if ok != c.ok || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: ok = %v, want %v; output:\n%s", c.name, ok, c.ok, out.String())
		}
	}
	var out bytes.Buffer
	if compareResults(&out, spec, base, map[string]map[string]float64{"w": base["w"], "extra": base["w"]}) {
		t.Error("a workload on one side only must fail the comparison")
	}
}

func TestMedianResults(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i, v := range []float64{900, 1100, 1000} {
		r := &resultFile{Workloads: map[string]*workloadResult{"w": {
			Attempted: 10, EndToEnd: map[string]metricValue{"req_per_s": {v, "1/s"}},
		}}}
		p := filepath.Join(dir, string(rune('a'+i))+".json")
		if err := writeResult(p, r); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	got, err := medianResults(strings.Join(paths, ","))
	if err != nil || got["w"]["req_per_s"] != 1000 {
		t.Errorf("median of three runs = %v, %v; want 1000", got, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil || !strings.Contains(string(data), `"claim": null`) {
		t.Errorf("a result file must carry \"claim\": null; got %s, %v", data, err)
	}
	bad := &resultFile{Workloads: map[string]*workloadResult{"w": {Attempted: 10, Failed: 1}}}
	p := filepath.Join(dir, "bad.json")
	if err := writeResult(p, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := medianResults(p); err == nil {
		t.Error("a run with failed jobs must not be compared")
	}
}
