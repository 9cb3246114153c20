package hypermm

import (
	"math"

	"hypermm/internal/simnet"
)

// Typed failure causes surfaced by Run when a fault plan or deadline is
// configured. Test with errors.Is:
//
//	_, err := hypermm.Run(alg, cfg, A, B)
//	if errors.Is(err, hypermm.ErrLinkDown) { ... }
var (
	// ErrLinkDown reports a transfer that exhausted its retry budget
	// (persistent drops or a link-down window).
	ErrLinkDown = simnet.ErrLinkDown
	// ErrDeadline reports a node whose simulated clock passed the
	// configured Deadline.
	ErrDeadline = simnet.ErrDeadline
)

// Window is a transient link outage: transfers departing Src toward Dst
// within [From, To) simulated time are lost and must be retried. Src or
// Dst of -1 matches every node.
type Window struct {
	Src, Dst int
	From, To float64
}

// Forever is a convenience upper bound for Window.To.
var Forever = math.Inf(1)

// FaultPlan is a seeded, deterministic description of link-level
// failures, plus the recovery budget of the acknowledged-transfer
// protocol the emulator switches to while a plan is active. The same
// (algorithm, config, seed, plan) always produces the same simulated
// clocks, counters and verdict — fault injection never depends on
// execution order.
//
// An empty plan (no drop/dup/delay probability, no windows) is inert:
// the machine stays byte-for-byte on its fault-free path, so the
// measured communication counters still reconcile with the paper's
// Table 2 analytic model.
type FaultPlan struct {
	Seed uint64 // decision seed; same seed, same failures

	Drop      float64  // per-attempt drop probability in [0, 1)
	Dup       float64  // probability a delivered payload arrives twice
	DelayProb float64  // probability a delivered payload is delayed
	DelayTime float64  // extra in-flight latency when delayed (simulated time)
	Down      []Window // transient link-down windows

	// MaxRetries bounds retransmissions after the first attempt:
	// 0 means the default of 4, negative means no retries at all.
	// Exhausting the budget surfaces ErrLinkDown from Run.
	MaxRetries int
	// AckTimeout is the simulated time a sender waits on a lost attempt
	// before retransmitting; 0 means twice the attempt's round trip.
	AckTimeout float64
	// Backoff scales the exponential backoff added after the k-th lost
	// attempt (Backoff * 2^k); 0 means the machine's Ts.
	Backoff float64
}

// Empty reports whether the plan injects no faults at all.
func (fp *FaultPlan) Empty() bool { return fp.internal().Empty() }

func (fp *FaultPlan) internal() *simnet.FaultPlan {
	if fp == nil {
		return nil
	}
	sp := &simnet.FaultPlan{
		Seed: fp.Seed, Drop: fp.Drop, Dup: fp.Dup,
		DelayProb: fp.DelayProb, DelayTime: fp.DelayTime,
		MaxRetries: fp.MaxRetries, AckTimeout: fp.AckTimeout, Backoff: fp.Backoff,
	}
	for _, w := range fp.Down {
		sp.Down = append(sp.Down, simnet.Window{Src: w.Src, Dst: w.Dst, From: w.From, To: w.To})
	}
	return sp
}
