package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func checkDefs(t *testing.T, what string, defs []metricDef, spec []specMetric) {
	t.Helper()
	if len(defs) != len(spec) {
		t.Errorf("%s: the program prints %d metrics, BENCHMARK.json declares %d", what, len(defs), len(spec))
	}
	declared := map[string]specMetric{}
	for _, m := range spec {
		if _, dup := declared[m.Name]; dup {
			t.Errorf("%s: %s declared twice", what, m.Name)
		}
		declared[m.Name] = m
	}
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			t.Errorf("%s: name %q breaks the naming rule", what, d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q of %s breaks the unit rule", what, d.unit, d.name)
		}
		m, ok := declared[d.name]
		if !ok {
			t.Errorf("%s: %s is printed but not declared in BENCHMARK.json", what, d.name)
			continue
		}
		if m.Unit != d.unit || m.Better != d.better {
			t.Errorf("%s: %s is %s/%s in the program, %s/%s in BENCHMARK.json", what, d.name, d.unit, d.better, m.Unit, m.Better)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("%s: %s has direction %q", what, d.name, d.better)
		}
		delete(declared, d.name)
	}
	for name := range declared {
		t.Errorf("%s: %s is declared in BENCHMARK.json but never printed", what, name)
	}
}

// Every workload and metric name the program prints appears in
// BENCHMARK.json and the other way round, and the file keeps to the
// limits of the benchmark contract.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	spec, err := loadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	checkDefs(t, "end_to_end", endToEnd, spec.EndToEnd)
	checkDefs(t, "per_layer", perLayer, spec.PerLayer)

	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric name %s is used twice", d.name)
		}
		seen[d.name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("the program has %d workloads, BENCHMARK.json %d", len(workloads), len(spec.Workloads))
	}
	for i, w := range workloads {
		sw := spec.Workloads[i]
		if sw.Name != w.name || sw.Why != w.why {
			t.Errorf("workload %d: program has %q (%q), BENCHMARK.json %q (%q)", i, w.name, w.why, sw.Name, sw.Why)
		}
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or already used", w.name)
		}
		seen[w.name] = true
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default %d", spec.RunSeconds, defaultSeconds)
	}

	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range spec.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
		if exactMetrics[m.Name] && m.Bound > 1e-6 {
			t.Errorf("%s is deterministic; its bound %v should be nominal", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}

	// The keys and the limits on the file as a whole.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(top) != len(want) {
		t.Errorf("BENCHMARK.json has %d keys, want exactly %v", len(top), want)
	}
	for _, k := range want {
		if _, ok := top[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	var command, paths []string
	if err := json.Unmarshal(top["command"], &command); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top["paths"], &paths); err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", paths)
	}
	if len(command) != 2 || command[0] != "bash" || command[1] != "bench/run.sh" {
		t.Errorf("command = %v, want [bash bench/run.sh]", command)
	}
}

func TestWithUnitsInsistsOnTheDeclaredSet(t *testing.T) {
	defs := []metricDef{{"a", "ms", "lower"}, {"b", "count", "lower"}}
	if _, err := withUnits(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric must be an error")
	}
	if _, err := withUnits(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undeclared metric must be an error")
	}
	got, err := withUnits(defs, map[string]float64{"a": 1, "b": 2})
	if err != nil || got["a"] != (metricValue{1, "ms"}) {
		t.Errorf("withUnits = %v, %v", got, err)
	}
}
