package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The same seed gives the same inputs; another seed gives others; the
// shapes, and so the simulated times, do not depend on the seed.
func TestPlanDerivesFromSeed(t *testing.T) {
	w, ok := findWorkload("serve-small")
	if !ok {
		t.Fatal("no serve-small")
	}
	a, err := newPlan(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newPlan(w, 7)
	c, _ := newPlan(w, 8)
	sameBodies, simA, simC := true, 0.0, 0.0
	for i := range a.kinds {
		if !bytes.Equal(a.kinds[i].body, b.kinds[i].body) || a.order[i] != b.order[i] {
			t.Errorf("kind %d differs between two plans of seed 7", i)
		}
		sameBodies = sameBodies && bytes.Equal(a.kinds[i].body, c.kinds[i].body)
		simA += a.kinds[i].elapsed
		simC += c.kinds[i].elapsed
		if a.kinds[i].elapsed <= 0 || a.kinds[i].comm.Msgs <= 0 {
			t.Errorf("kind %s has no expectation", a.kinds[i].label)
		}
	}
	if sameBodies {
		t.Error("seeds 7 and 8 give the same request bodies")
	}
	if simA != simC {
		t.Errorf("sim_time depends on the seed: %v vs %v", simA, simC)
	}
	// Both clients together cover every kind in one pass of the schedule.
	seen := map[int]bool{}
	for seq := 0; seq < len(a.order); seq++ {
		seen[a.kindFor(0, 2, seq)] = true
		if a.kindFor(0, 2, seq) == a.kindFor(1, 2, seq) {
			t.Errorf("both clients send kind %d at step %d", a.kindFor(0, 2, seq), seq)
		}
	}
	if len(seen) != len(a.kinds) {
		t.Errorf("one pass covers %d of %d kinds", len(seen), len(a.kinds))
	}
}

func TestShapes(t *testing.T) {
	for _, c := range []struct {
		name          string
		kinds, shapes int
	}{{"serve-small", 6, 6}, {"serve-compute", 3, 3}, {"serve-inline", 1, 1}, {"cluster-small", 4, 2}, {"emu-large", 8, 4}} {
		w, _ := findWorkload(c.name)
		pl := &plan{w: w, kinds: w.kinds()}
		if len(pl.kinds) != c.kinds || len(pl.distinctShapes()) != c.shapes {
			t.Errorf("%s: %d kinds, %d shapes; want %d and %d", c.name, len(pl.kinds), len(pl.distinctShapes()), c.kinds, c.shapes)
		}
	}
	w, _ := findWorkload("cluster-small")
	pl := &plan{w: w, kinds: w.kinds()}
	got, err := pl.perShape([]float64{0, 5, 3, 5}) // the first tenant's first shape was never answered
	if err != nil || len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("perShape = %v, %v; want [3 5]", got, err)
	}
	if _, err := pl.perShape([]float64{3, 5, 4, 5}); err == nil {
		t.Error("two tenants disagreeing on one shape's simulated time must be an error")
	}
	if _, err := pl.perShape([]float64{0, 5, 0, 5}); err == nil {
		t.Error("a shape nobody answered must be an error")
	}
}

func TestGemmRatesNearest(t *testing.T) {
	g := gemmRates{blocks: []int{64, 128, 256}, gflops: []float64{1, 2, 3}}
	for _, c := range []struct {
		side  float64
		block int
	}{{4, 64}, {64, 64}, {100, 128}, {180, 128}, {182, 256}, {1000, 256}} {
		if b, _ := g.nearest(c.side); b != c.block {
			t.Errorf("nearest(%v) = %d, want %d", c.side, b, c.block)
		}
	}
}

func TestTraceFileFormat(t *testing.T) {
	var rec recorder
	trace := rec.newID()
	parent, _ := rec.timed("ladder.http.x", "ladder", trace, 0, nil, func() {})
	rec.timed("ladder.handler.x", "ladder", trace, parent, map[string]any{"block": 64}, func() {})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args map[string]any
		}
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, e := range f.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		spans++
		if e.Args["trace_id"] == "" || e.Args["span_id"] == "" {
			t.Errorf("span %s lacks IDs: %v", e.Name, e.Args)
		}
		if strings.HasSuffix(e.Name, "handler.x") && (e.Args["parent_id"] == nil || e.Args["block"] != 64.0) {
			t.Errorf("child span lost its parent or attributes: %v", e.Args)
		}
	}
	if spans != 2 {
		t.Errorf("%d spans in the file, want 2", spans)
	}
}
