package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"hypermm/internal/conformance"
)

// cmdSoak drives the property-based conformance engine
// (internal/conformance) as a standing soak test: it generates seeded
// random scenarios — matrix shapes and contents, machine
// configurations, fault plans — checks every applicable metamorphic
// oracle on each, shrinks any failure to a minimal counterexample, and
// persists it as a replayable JSON repro (plus a Chrome trace of the
// offending schedule) for the repro corpus.
//
// Determinism contract: for a fixed -seed and -iters the entire run —
// cases, verdicts, transcript — is byte-identical across invocations;
// CI diffs two runs to enforce it. With -budget the engine instead runs
// chunk after chunk until the wall-clock budget is spent; each chunk is
// still a pure function of (seed, iteration index), only the number of
// chunks varies with machine speed. Exit 1 means failures were found
// (repros written) or a repro could not be written; a -replay file that
// cannot be loaded is a usage error.
//
//	hmm soak -seed 1 -iters 32
//	hmm soak -seed $(date +%Y%m%d) -budget 15m -repros soak-artifacts
//	hmm soak -replay internal/conformance/testdata/repros/<file>.json
func cmdSoak(args []string, stdout, stderr io.Writer) int {
	fs := flags("soak", stderr)
	var (
		seed    = fs.Int64("seed", 1, "master seed; same seed and -iters, same transcript and verdict")
		iters   = fs.Int("iters", 32, "generated cases (ignored when -budget is set)")
		budget  = fs.Duration("budget", 0, "wall-clock budget; run chunks of cases until it is spent")
		repros  = fs.String("repros", "internal/conformance/testdata/repros", "directory for minimized failure repros")
		oracles = fs.String("oracles", "", "comma-separated oracle subset (default: all); see -list")
		list    = fs.Bool("list", false, "print the oracle catalogue and exit")
		replay  = fs.String("replay", "", "replay one repro JSON file and exit")
		trace   = fs.Bool("trace", true, "write a Chrome trace next to each failing repro")
		maxFail = fs.Int("max-failures", 4, "stop after this many failing iterations")
		quiet   = fs.Bool("q", false, "suppress the per-iteration transcript")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	if *list {
		for _, o := range conformance.Oracles() {
			fmt.Fprintf(stdout, "%-12s %s\n", o.Name, o.Doc)
		}
		return exitOK
	}
	if *replay != "" {
		r, err := conformance.Load(*replay)
		if err != nil {
			return fail(stderr, "soak", exitUsage, err)
		}
		fmt.Fprintf(stdout, "replaying %s: oracle=%s case %v\n", *replay, r.Oracle, r.Case)
		if err := r.Replay(); err != nil {
			fmt.Fprintf(stdout, "soak: repro still FAILS: %v\n", err)
			return exitFail
		}
		fmt.Fprintln(stdout, "soak: repro passes")
		return exitOK
	}

	opt := conformance.Options{Seed: *seed, ReproDir: *repros}
	if !*quiet {
		opt.Logf = func(format string, args ...any) { fmt.Fprintf(stdout, format+"\n", args...) }
	}
	if *oracles != "" {
		for _, name := range strings.Split(*oracles, ",") {
			o, ok := conformance.OracleByName(strings.TrimSpace(name))
			if !ok {
				return fail(stderr, "soak", exitUsage, fmt.Errorf("unknown oracle %q (try -list)", name))
			}
			opt.Oracles = append(opt.Oracles, o)
		}
	}
	if *trace {
		opt.OnFailure = func(f *conformance.Failure) {
			if f.ReproPath == "" {
				return
			}
			path := strings.TrimSuffix(f.ReproPath, ".json") + ".trace.json"
			if err := writeFile(path, func(w io.Writer) error { return conformance.WriteTrace(f.Case, w) }); err != nil {
				fmt.Fprintf(stderr, "hmm soak: trace: %v\n", err)
				return
			}
			fmt.Fprintf(stdout, "iter %d: trace %s\n", f.Iter, path)
		}
	}

	// A fixed -iters run is one chunk. With -budget, run fixed-size
	// chunks with absolute iteration numbering until the budget is spent
	// or the failure cap is hit.
	var total conformance.Summary
	chunk, start := *iters, time.Now()
	if *budget > 0 {
		chunk = 8
	}
	for next := 0; next == 0 && *budget <= 0 || time.Since(start) < *budget && len(total.Failures) < *maxFail; next += chunk {
		opt.StartIter, opt.Iters = next, chunk
		opt.MaxFailures = *maxFail - len(total.Failures)
		sum, err := conformance.Run(opt)
		if err != nil {
			return fail(stderr, "soak", exitFail, err)
		}
		total.Iters += sum.Iters
		total.Checks += sum.Checks
		total.Skipped += sum.Skipped
		total.Retries += sum.Retries
		total.Failures = append(total.Failures, sum.Failures...)
	}

	if len(total.Failures) > 0 {
		fmt.Fprintf(stdout, "soak: FAIL (%d failures over %d iters, %d checks; repros in %s)\n",
			len(total.Failures), total.Iters, total.Checks, *repros)
		return exitFail
	}
	fmt.Fprintf(stdout, "soak: PASS (%d iters, %d checks, %d skipped, %d retries recovered)\n",
		total.Iters, total.Checks, total.Skipped, total.Retries)
	return exitOK
}
