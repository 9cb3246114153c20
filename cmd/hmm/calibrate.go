package main

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"hypermm"
	"hypermm/internal/calibrate"
)

// cmdCalibrate runs the empirical calibration pipeline end to end: a
// deterministic measurement sweep over (algorithm, n, p) on the
// emulator, a least-squares fit of effective (t_s, t_w) and
// per-algorithm correction factors, prediction-error and
// communication-volume reports, empirical-vs-analytic region-map
// diffs, and a versioned JSON calibration profile that hmmd loads with
// -calibration. The same flags always produce byte-identical output.
//
//	hmm calibrate -o profile.json                         # default grid, one-port
//	hmm calibrate -ports multi -ns 16,32,48 -ps 4,16,64
//	hmm calibrate -assert-maxerr 0.5                      # exit 1 if the fit is worse
//	hmm calibrate -trace run.json                         # Chrome trace of one sweep cell
func cmdCalibrate(args []string, stdout, stderr io.Writer) int {
	fs := flags("calibrate", stderr)
	var (
		ports     = fs.String("ports", "one", "machine model: one or multi")
		nsFlag    = fs.String("ns", "16,32,48,64", "comma-separated matrix sizes")
		psFlag    = fs.String("ps", "4,8,16,64,256", "comma-separated machine sizes (powers of two)")
		ts        = fs.Float64("ts", 150, "reference start-up cost t_s")
		tw        = fs.Float64("tw", 3, "reference per-word cost t_w")
		out       = fs.String("o", "calibration.json", "profile output path ('-' for stdout)")
		diffs     = fs.String("diff", "150:3,10:3", "region-map diff settings as ts:tw pairs ('' to skip)")
		assertErr = fs.Float64("assert-maxerr", 0, "exit 1 if the calibrated max relative error exceeds this (0: no assertion)")
		maxDiff   = fs.Float64("assert-maxdiff", 0, "exit 1 if any region-map disagreement fraction exceeds this (0: no assertion)")
		tracePath = fs.String("trace", "", "write a Chrome trace (chrome://tracing) of the largest sweep cell")
		workers   = fs.Int("workers", 0, "concurrent cell emulations (0: GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	usage := func(err error) int { return fail(stderr, "calibrate", exitUsage, err) }
	failed := func(err error) int { return fail(stderr, "calibrate", exitFail, err) }

	pm, err := hypermm.ParsePortModel(*ports)
	if err != nil {
		return usage(err)
	}
	ns, err := parseInts(*nsFlag)
	if err != nil {
		return usage(fmt.Errorf("-ns: %w", err))
	}
	ps, err := parseInts(*psFlag)
	if err != nil {
		return usage(fmt.Errorf("-ps: %w", err))
	}
	settings, err := parseSettings(*diffs)
	if err != nil {
		return usage(fmt.Errorf("-diff: %w", err))
	}

	sweep, err := calibrate.Run(calibrate.Spec{Ports: pm, Ns: ns, Ps: ps, Workers: *workers})
	if err != nil {
		return failed(err)
	}
	fmt.Fprintf(stdout, "sweep: %d cells measured (%v, n in %v, p in %v)\n\n",
		len(sweep.Cells), pm, ns, ps)

	profile, err := calibrate.Fit(sweep, *ts, *tw)
	if err != nil {
		return failed(err)
	}
	fmt.Fprint(stdout, calibrate.ErrorReport(profile))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, calibrate.VolumeReport(sweep))
	fmt.Fprintln(stdout)

	code := exitOK
	for _, s := range settings {
		d := calibrate.NewMapDiff(sweep, s[0], s[1])
		fmt.Fprint(stdout, d.Render())
		fmt.Fprintln(stdout)
		if *maxDiff > 0 && d.Fraction() > *maxDiff {
			code = failed(fmt.Errorf("region-map disagreement %.1f%% at t_s=%g t_w=%g exceeds bound %.1f%%",
				100*d.Fraction(), s[0], s[1], 100**maxDiff))
		}
	}

	if *assertErr > 0 && profile.MaxRelErr() > *assertErr {
		code = failed(fmt.Errorf("calibrated max relative error %.1f%% exceeds bound %.1f%%",
			100*profile.MaxRelErr(), 100**assertErr))
	}

	data, err := profile.Marshal()
	if err != nil {
		return failed(err)
	}
	if *out == "-" {
		stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		return failed(err)
	} else {
		fmt.Fprintf(stdout, "wrote profile to %s (max calibrated rel err %.1f%%)\n", *out, 100*profile.MaxRelErr())
	}

	if *tracePath != "" {
		if err := writeTrace(sweep, *ts, *tw, *tracePath); err != nil {
			return failed(err)
		}
		fmt.Fprintf(stdout, "wrote Chrome trace to %s\n", *tracePath)
	}
	return code
}

// writeTrace re-runs the sweep's largest measured cell with tracing on
// and exports the timeline for chrome://tracing.
func writeTrace(s *calibrate.Sweep, ts, tw float64, path string) error {
	if len(s.Cells) == 0 {
		return errors.New("no cells to trace")
	}
	best := slices.MaxFunc(s.Cells, func(a, b calibrate.Measurement) int {
		return cmp.Or(cmp.Compare(a.N, b.N), cmp.Compare(a.P, b.P))
	})
	A := hypermm.RandomMatrix(best.N, best.N, 7)
	B := hypermm.RandomMatrix(best.N, best.N, 8)
	_, tr, err := hypermm.RunTraced(best.Alg, hypermm.Config{
		P: best.P, Ports: s.Spec.Ports, Ts: ts, Tw: tw, Tc: 0.5,
	}, A, B)
	if err != nil {
		return err
	}
	return writeFile(path, tr.ChromeJSON)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			v, err := strconv.Atoi(part)
			if err != nil {
				return nil, fmt.Errorf("bad integer %q", part)
			}
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("empty list")
	}
	return out, nil
}

// parseSettings parses "150:3,10:3" into (ts, tw) pairs.
func parseSettings(s string) ([][2]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out [][2]float64
	for _, part := range strings.Split(s, ",") {
		halves := strings.Split(strings.TrimSpace(part), ":")
		if len(halves) != 2 {
			return nil, fmt.Errorf("bad setting %q, want ts:tw", part)
		}
		tsv, err1 := strconv.ParseFloat(halves[0], 64)
		twv, err2 := strconv.ParseFloat(halves[1], 64)
		if err1 != nil || err2 != nil || tsv < 0 || twv < 0 {
			return nil, fmt.Errorf("bad setting %q, want nonnegative ts:tw", part)
		}
		out = append(out, [2]float64{tsv, twv})
	}
	return out, nil
}
