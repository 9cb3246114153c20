// Command hmm reproduces the paper offline: it runs algorithms on the
// simulated hypercube, prints the paper's tables and figures, and
// drives the conformance soak and the calibration pipeline. `hmm` alone
// lists the subcommands; `hmm <subcommand> -h` lists a subcommand's flags.
//
//	hmm run -alg 3dall -n 256 -p 64 -ports one -ts 150 -tw 3 -tc 0.5
//	hmm report > report.md
//
// Every subcommand exits 0 on success, 1 when the run fails or an
// assertion trips, and 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
)

// The exit codes every subcommand returns.
const exitOK, exitFail, exitUsage = 0, 1, 2

// commands is the subcommand table; run dispatches on its names.
var commands = []struct {
	name, doc string
	run       func(args []string, stdout, stderr io.Writer) int
}{
	{"run", "multiply two random matrices with one algorithm on the emulator", cmdRun},
	{"sweep", "measured vs analytic communication time over p or n (Section 5)", cmdSweep},
	{"regionmap", "best-algorithm region maps (Figures 13 and 14)", cmdRegionMap},
	{"layout", "block-ownership maps of an algorithm's operands and result", cmdLayout},
	{"report", "the full reproduction record as markdown (report.md)", cmdReport},
	{"soak", "seeded conformance soak over the oracle catalogue", cmdSoak},
	{"calibrate", "fit t_s, t_w and per-algorithm factors to emulator runs", cmdCalibrate},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				return c.run(args[1:], stdout, stderr)
			}
		}
		fmt.Fprintf(stderr, "hmm: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: hmm <subcommand> [flags]")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-10s %s\n", c.name, c.doc)
	}
	return exitUsage
}

// flags returns a subcommand's flag set, reporting parse errors on
// stderr instead of exiting.
func flags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("hmm "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// fail prints err as subcommand name's one-line error and returns code.
func fail(stderr io.Writer, name string, code int, err error) int {
	fmt.Fprintf(stderr, "hmm %s: %v\n", name, err)
	return code
}

// parallel evaluates f(0), ..., f(n-1) concurrently over GOMAXPROCS
// workers and returns the results in index order, so output assembled
// from them is byte-identical to a serial loop.
func parallel(n int, f func(i int) string) []string {
	out := make([]string, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = f(i)
		}()
	}
	wg.Wait()
	return out
}

// writeFile creates path, lets write fill it, and closes it, returning
// the first error of the three.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
