package hypermm_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"hypermm"
)

// Error-path coverage for the public Run API: every algorithm must
// surface the typed faults (ErrLinkDown on an exhausted retry budget,
// ErrDeadline on a missed deadline) with a nil result — never a partial
// product — and the same inputs must multiply correctly once the fault
// source is removed.

// faultShape picks an (n, p) at which alg is runnable, mirroring the
// runners' shape preconditions.
func faultShape(alg hypermm.Algorithm) (n, p int) {
	for _, p := range []int{4, 8, 16, 64} {
		for _, n := range []int{12, 24, 48} {
			cfg := hypermm.Config{P: p, Ts: 1, Tw: 1}
			A := hypermm.RandomMatrix(n, n, 1)
			if _, err := hypermm.Run(alg, cfg, A, A); err == nil {
				return n, p
			}
		}
	}
	return 0, 0
}

func TestRunLinkDownEveryAlgorithm(t *testing.T) {
	for _, alg := range hypermm.Algorithms {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			n, p := faultShape(alg)
			if n == 0 {
				t.Fatalf("no runnable shape for %v", alg)
			}
			A := hypermm.RandomMatrix(n, n, 11)
			B := hypermm.RandomMatrix(n, n, 12)
			cfg := hypermm.Config{
				P: p, Ts: 1, Tw: 1, Tc: 0.1,
				Faults: &hypermm.FaultPlan{
					Down:       []hypermm.Window{{Src: -1, Dst: -1, From: 0, To: hypermm.Forever}},
					MaxRetries: 1,
				},
			}
			res, err := hypermm.Run(alg, cfg, A, B)
			if !errors.Is(err, hypermm.ErrLinkDown) {
				t.Fatalf("total outage: got err %v, want ErrLinkDown", err)
			}
			if res != nil {
				t.Fatalf("partial result leaked past the failure: %+v", res)
			}

			// Same inputs, fault plan removed: the product must be right.
			cfg.Faults = nil
			res, err = hypermm.Run(alg, cfg, A, B)
			if err != nil {
				t.Fatalf("clean rerun failed: %v", err)
			}
			if err := hypermm.Verify(A, B, res.C, 1e-9*float64(n)); err != nil {
				t.Fatalf("clean rerun product wrong: %v", err)
			}
			if res.Comm.Retries != 0 {
				t.Errorf("clean run charged %d retries", res.Comm.Retries)
			}
		})
	}
}

func TestRunDeadlineEveryAlgorithm(t *testing.T) {
	for _, alg := range hypermm.Algorithms {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			n, p := faultShape(alg)
			if n == 0 {
				t.Fatalf("no runnable shape for %v", alg)
			}
			A := hypermm.RandomMatrix(n, n, 21)
			B := hypermm.RandomMatrix(n, n, 22)
			cfg := hypermm.Config{P: p, Ts: 1, Tw: 1, Tc: 0.1, Deadline: 0.5}
			res, err := hypermm.Run(alg, cfg, A, B)
			if !errors.Is(err, hypermm.ErrDeadline) {
				t.Fatalf("deadline 0.5: got err %v, want ErrDeadline", err)
			}
			if res != nil {
				t.Fatalf("partial result leaked past the deadline: %+v", res)
			}

			cfg.Deadline = 0
			res, err = hypermm.Run(alg, cfg, A, B)
			if err != nil {
				t.Fatalf("rerun without deadline failed: %v", err)
			}
			if err := hypermm.Verify(A, B, res.C, 1e-9*float64(n)); err != nil {
				t.Fatalf("rerun product wrong: %v", err)
			}
		})
	}
}

// TestRunDeadlineErrorRepeats: a run whose nodes hand their products
// off to other goroutines reports the same fault, word for word, however
// those products' run times fall: run after run, with two runs in
// flight at once, and on one processor.
func TestRunDeadlineErrorRepeats(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	A := hypermm.RandomMatrix(128, 128, 1) // Cannon at P=4 multiplies 64^3 blocks, which hand off
	cfg := hypermm.Config{P: 4, Tc: 1, Deadline: 1}
	errText := func() string {
		_, err := hypermm.Run(hypermm.Cannon, cfg, A, A)
		if !errors.Is(err, hypermm.ErrDeadline) {
			t.Errorf("got %v, want ErrDeadline", err)
		}
		return fmt.Sprint(err)
	}
	want := errText()
	got := make(chan string, 40)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				got <- errText()
			}
		}()
	}
	for range 10 {
		got <- errText()
	}
	wg.Wait()
	runtime.GOMAXPROCS(1)
	got <- errText()
	close(got)
	for e := range got {
		if e != want {
			t.Errorf("got %q, want %q", e, want)
		}
	}
}

// TestRunRejectsBadConfigs: config validation errors are plain errors,
// not typed faults, and never produce a result.
func TestRunRejectsBadConfigs(t *testing.T) {
	A := hypermm.RandomMatrix(8, 8, 1)
	for name, cfg := range map[string]hypermm.Config{
		"p-zero":            {P: 0, Ts: 1, Tw: 1},
		"p-not-pow2":        {P: 6, Ts: 1, Tw: 1},
		"negative-ts":       {P: 4, Ts: -1, Tw: 1},
		"negative-deadline": {P: 4, Ts: 1, Tw: 1, Deadline: -2},
		"nan-tw":            {P: 4, Ts: 1, Tw: math.NaN()},
		"nan-tc":            {P: 4, Ts: 1, Tw: 1, Tc: math.NaN()},
		"nan-deadline":      {P: 4, Ts: 1, Tw: 1, Deadline: math.NaN()},
	} {
		res, err := hypermm.Run(hypermm.Cannon, cfg, A, A)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if errors.Is(err, hypermm.ErrLinkDown) || errors.Is(err, hypermm.ErrDeadline) {
			t.Errorf("%s: config error reported as a runtime fault: %v", name, err)
		}
		if res != nil {
			t.Errorf("%s: result on error: %+v", name, res)
		}
	}
}
