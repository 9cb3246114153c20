package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// resultFile is what a run writes under bench/out/ and what -compare
// reads back.
type resultFile struct {
	Meta meta `json:"meta"`
	// Claim is always null: the benchmark is the ruler, it claims no gain.
	Claim     *string                    `json:"claim"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// meta records where and when the numbers were taken.
type meta struct {
	Commit     string `json:"commit"`
	Date       string `json:"date"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeResult(path string, r *resultFile) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// medianResults reduces one side of a comparison, a comma-separated
// list of result files of the same code, to the median of each
// end-to-end metric per workload.
func medianResults(list string) (map[string]map[string]float64, error) {
	vals := map[string]map[string][]float64{}
	for _, path := range strings.Split(list, ",") {
		r, err := readResult(path)
		if err != nil {
			return nil, err
		}
		for w, wr := range r.Workloads {
			if wr.Failed > 0 {
				return nil, fmt.Errorf("%s: workload %s has %d failed jobs of %d; its figures do not count", path, w, wr.Failed, wr.Attempted)
			}
			for name, mv := range wr.EndToEnd {
				if vals[w] == nil {
					vals[w] = map[string][]float64{}
				}
				vals[w][name] = append(vals[w][name], mv.Value)
			}
		}
	}
	out := map[string]map[string]float64{}
	for w, ms := range vals {
		out[w] = map[string]float64{}
		for name, vs := range ms {
			out[w][name] = median(vs)
		}
	}
	return out, nil
}

// worsening is how much worse b is than a as a share of a, in the
// metric's own direction: positive is a regression.
func worsening(better string, a, b float64) float64 {
	if better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// compareResults prints, per workload and end-to-end metric, both
// medians, how much worse the second is, the bound and a verdict. It
// reports whether every metric stayed within its bound; simulated
// quantities must be exactly equal.
func compareResults(w io.Writer, spec *benchmarkSpec, a, b map[string]map[string]float64) bool {
	ok := true
	var names []string
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			va, inA := a[wl][m.Name]
			vb, inB := b[wl][m.Name]
			if !inA || !inB {
				if inA != inB {
					ok = false
					fmt.Fprintf(w, "%-14s %-16s present on one side only  FAIL\n", wl, m.Name)
				}
				continue
			}
			worse := worsening(m.Better, va, vb)
			verdict := "ok"
			switch {
			case exactMetrics[m.Name] && va != vb:
				verdict, ok = "FAIL (must be equal)", false
			case worse > m.Bound:
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				wl, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	for wl := range b {
		if _, both := a[wl]; !both {
			ok = false
			fmt.Fprintf(w, "%-14s present on one side only  FAIL\n", wl)
		}
	}
	return ok
}
