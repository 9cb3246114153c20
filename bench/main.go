// Command hmmbench is the repository's benchmark: five workloads over
// the hmmd daemon, the cluster tier and the emulator library, measured
// end to end with tracing off and layer by layer in a separate traced
// pass. See README.md in this directory and BENCHMARK.json at the root.
//
// It is started through bench/run.sh, which builds cmd/hmmd and this
// program first:
//
//	bash bench/run.sh                                   every workload, both passes
//	bash bench/run.sh --workload serve-small --seed 3 --seconds 15 --trace 0
//	bash bench/run.sh --compare a.json b.json           check b against a
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all of them, both passes)")
		seed         = flag.Int64("seed", 1, "workload seed: operand seeds, request bodies and job order derive from it")
		seconds      = flag.Int("seconds", defaultSeconds, "how long one run measures")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
		hmmd         = flag.String("hmmd", "", "prebuilt cmd/hmmd binary (bench/run.sh passes it)")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for logs, traces and result files")
		specPath     = flag.String("spec", "BENCHMARK.json", "benchmark declaration (bounds for -compare)")
		compare      = flag.Bool("compare", false, "compare two result files (or comma-separated lists, reduced to medians): -compare a.json b.json")

		child  = flag.Bool("child", false, "internal: run as the emu-large child")
		warmup = flag.Duration("warmup", 0, "internal: child warm-up")
		window = flag.Duration("window", 0, "internal: child measured window")
		block  = flag.Int("trace-block", 0, "internal: child trace block")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer reapAll() // daemons are reaped on every path out, an interrupt included

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if *compare {
		if flag.NArg() != 2 {
			return fail(errors.New("-compare takes two result files"))
		}
		spec, err := loadSpec(*specPath)
		if err != nil {
			return fail(err)
		}
		a, err := medianResults(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := medianResults(flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !compareResults(os.Stdout, spec, a, b) {
			return 1
		}
		return 0
	}

	if *child {
		w, ok := findWorkload(*workloadName)
		if !ok || w.topo != emulator {
			return fail(fmt.Errorf("-child needs an emulator workload, got %q", *workloadName))
		}
		pl, err := newPlan(w, *seed)
		if err != nil {
			return fail(err)
		}
		lp := loopPlan{clients: 1, warmup: *warmup, window: *window, traceBlock: *block}
		if err := runChild(ctx, pl, lp, os.Stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	// Below two CPUs the generator, the daemon's two workers and the
	// emulator's node goroutines time-share one core, and the figures
	// measure the scheduler.
	if runtime.NumCPU() < 2 {
		return fail(fmt.Errorf("needs at least 2 CPUs, found %d", runtime.NumCPU()))
	}
	if *seconds < 1 {
		return fail(errors.New("-seconds must be at least 1"))
	}
	if *hmmd == "" {
		return fail(errors.New("-hmmd is required: start the benchmark with bench/run.sh, which builds the daemon"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail(err)
	}
	e := env{hmmd: *hmmd, outDir: *outDir, qos: filepath.Join("bench", "qos.json")}
	out := &resultFile{Meta: readMeta(*seed, *seconds), Workloads: map[string]*workloadResult{}}
	dur := time.Duration(*seconds) * time.Second

	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		res, err := e.runPass(ctx, w, *seed, dur, *trace == 1)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		out.Workloads[w.name] = res
		printResult(w.name, res)
		path := filepath.Join(*outDir, fmt.Sprintf("result-%s-trace%d.json", w.name, *trace))
		if err := writeResult(path, out); err != nil {
			return fail(err)
		}
		// The result line the driver reads: the last line of standard output.
		metrics := res.EndToEnd
		if *trace == 1 {
			metrics = res.PerLayer
		}
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Failed == 0, res.Attempted, res.Failed, metrics})
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		if res.Failed > 0 {
			return 1
		}
		return 0
	}

	// All workloads: the untraced pass for the end-to-end numbers, then
	// the traced pass for the per-layer ones.
	failed := false
	for _, w := range workloads {
		e2e, err := e.runPass(ctx, w, *seed, dur, false)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		layers, err := e.runPass(ctx, w, *seed, dur, true)
		if err != nil {
			return fail(fmt.Errorf("%s (traced): %w", w.name, err))
		}
		e2e.PerLayer = layers.PerLayer
		e2e.Attempted += layers.Attempted
		e2e.Failed += layers.Failed
		out.Workloads[w.name] = e2e
		printResult(w.name, e2e)
		failed = failed || e2e.Failed > 0
	}
	path := filepath.Join(*outDir, "result.json")
	if err := writeResult(path, out); err != nil {
		return fail(err)
	}
	fmt.Printf("results: %s, traces: %s\n", path, filepath.Join(*outDir, "trace-<workload>.json"))
	if failed {
		return fail(errors.New("some jobs failed or returned wrong output (fail_ratio > 0)"))
	}
	return 0
}

// runPass runs one pass over one workload. The traced pass also writes
// the workload's spans as a Chrome trace file.
func (e env) runPass(ctx context.Context, w workload, seed int64, dur time.Duration, traced bool) (*workloadResult, error) {
	// Logs are appended to across the cold starts of one pass; start clean.
	old, _ := filepath.Glob(filepath.Join(e.outDir, "*"+w.name+"-*.log")) // the pattern is well-formed
	for _, f := range old {
		os.Remove(f)
	}
	pl, err := newPlan(w, seed)
	if err != nil {
		return nil, err
	}
	if !traced {
		return e.runEndToEnd(ctx, pl, dur)
	}
	var rec recorder
	res, err := e.runTraced(ctx, pl, dur, &rec)
	if err != nil {
		return nil, err
	}
	return res, rec.writeChrome(filepath.Join(e.outDir, "trace-"+w.name+".json"))
}

// printResult prints every metric as "workload metric value unit".
func printResult(name string, res *workloadResult) {
	if res.EndToEnd != nil {
		fmt.Printf("%s fail_ratio %g ratio (%d failed of %d attempted)\n",
			name, ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		mv, ok := res.EndToEnd[d.name]
		if !ok {
			if mv, ok = res.PerLayer[d.name]; !ok {
				continue
			}
		}
		note := ""
		if strings.HasPrefix(d.name, "latency_") {
			note = fmt.Sprintf(" (%d samples)", res.Samples)
		}
		fmt.Printf("%s %s %.6g %s%s\n", name, d.name, mv.Value, mv.Unit, note)
	}
}

// readMeta describes the machine and the code under test.
func readMeta(seed int64, seconds int) meta {
	m := meta{
		Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Seed: seed, Seconds: seconds,
	}
	// A checkout that is not a git repository has no commit to record.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		m.CPUModel = parseCPUModel(string(b))
	}
	return m
}
