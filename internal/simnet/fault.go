// Fault injection: a seeded, deterministic plan of link-level failures
// (drops, duplications, extra latency, transient link-down windows) plus
// the acknowledged-transfer protocol that recovers from them.
//
// Every decision is a pure function of (plan seed, src, dst, tag,
// attempt) — plus the attempt's departure time for link-down windows —
// so two runs of the same program under the same plan produce identical
// logical clocks and counters regardless of execution order.
//
// When a plan is active every non-self Send becomes an acknowledged
// transfer: each attempt transmits the payload (charged to the clock and
// the traffic counters), a lost attempt additionally charges the ack
// timeout plus exponential backoff before the retransmission, and the
// successful attempt charges the one-word ack's return trip to the
// sender. After MaxRetries lost attempts the send fails with a typed
// ErrLinkDown, which Machine.RunErr converts into an error return after
// aborting every other node. The receive side of the ack (the one-word
// control message occupying the receiver's outgoing port) is not
// modeled; its wire time is folded into the sender's round trip.
package simnet

import (
	"errors"
	"fmt"
)

// Typed failure causes, tested with errors.Is against the error that
// Machine.RunErr returns.
var (
	// ErrLinkDown reports an acknowledged transfer that exhausted its
	// retry budget (persistent drops or a link-down window).
	ErrLinkDown = errors.New("link down: retries exhausted")
	// ErrDeadline reports a node whose logical clock passed the
	// configured simulated-time deadline.
	ErrDeadline = errors.New("deadline exceeded")
	// ErrAborted reports a node resumed out of a wait (a receive or a
	// handed-off product) because another node failed first, or because
	// the run deadlocked. RunErr returns the originating failure, not
	// ErrAborted, whenever one was recorded.
	ErrAborted = errors.New("aborted: peer failed")
)

// FaultError is the failure a node program raises from inside a send
// or receive when fault injection (or the deadline) trips. It
// unwraps to one of the typed causes above.
type FaultError struct {
	Node     int    // node whose program failed
	Op       string // "send", "recv", "deadline"
	Src, Dst int    // transfer endpoints (-1 when not a transfer)
	Tag      uint64
	Attempts int   // transmission attempts made (sends only)
	Err      error // ErrLinkDown, ErrDeadline or ErrAborted
}

// Error implements error.
func (e *FaultError) Error() string {
	if e.Src >= 0 || e.Dst >= 0 {
		return fmt.Sprintf("simnet: node %d %s (src=%d dst=%d tag=%#x attempts=%d): %v",
			e.Node, e.Op, e.Src, e.Dst, e.Tag, e.Attempts, e.Err)
	}
	return fmt.Sprintf("simnet: node %d %s: %v", e.Node, e.Op, e.Err)
}

// Unwrap implements errors.Is/As support.
func (e *FaultError) Unwrap() error { return e.Err }

// Window is a transient link outage: transfers departing src toward dst
// within [From, To) simulated time are lost. Src or Dst of -1 matches
// every node, so Window{-1, -1, 0, math.Inf(1)} kills the whole network.
type Window struct {
	Src, Dst int
	From, To float64
}

func (w Window) covers(src, dst int, t float64) bool {
	return (w.Src == -1 || w.Src == src) &&
		(w.Dst == -1 || w.Dst == dst) &&
		t >= w.From && t < w.To
}

// FaultPlan is a seeded description of link-level failures together with
// the recovery budget of the acknowledged-transfer protocol. The zero
// plan (or a plan with only a Seed) injects nothing and leaves the
// machine byte-for-byte on its exact fault-free path — no ack traffic,
// no retry charges — so cost-model reconciliation holds whenever the
// plan is empty.
type FaultPlan struct {
	Seed uint64 // decision seed; same seed, same failures

	Drop      float64  // per-attempt drop probability in [0, 1)
	Dup       float64  // probability a delivered payload arrives twice
	DelayProb float64  // probability a delivered payload is delayed
	DelayTime float64  // extra in-flight latency when delayed (simulated time)
	Down      []Window // transient link-down windows

	// MaxRetries bounds retransmissions after the first attempt:
	// 0 means the default of 4, negative means no retries at all.
	MaxRetries int
	// AckTimeout is the simulated time a sender waits on a lost attempt
	// before retransmitting; 0 means twice the attempt's round trip.
	AckTimeout float64
	// Backoff scales the exponential backoff added after the k-th lost
	// attempt (Backoff * 2^k); 0 means the machine's Ts.
	Backoff float64
}

// Empty reports whether the plan injects no faults at all; an empty
// plan leaves the simulation on its exact fault-free path.
func (fp *FaultPlan) Empty() bool { return !fp.active() }

func (fp *FaultPlan) active() bool {
	return fp != nil && (fp.Drop > 0 || fp.Dup > 0 || fp.DelayProb > 0 || len(fp.Down) > 0)
}

func (fp *FaultPlan) maxRetries() int {
	if fp.MaxRetries == 0 {
		return 4
	}
	return max(fp.MaxRetries, 0)
}

func (fp *FaultPlan) ackTimeout(roundTrip float64) float64 {
	if fp.AckTimeout > 0 {
		return fp.AckTimeout
	}
	return 2 * roundTrip
}

func (fp *FaultPlan) backoff(ts float64, attempt int) float64 {
	unit := fp.Backoff
	if unit == 0 {
		unit = ts
	}
	return unit * float64(int64(1)<<min(attempt, 30))
}

// Decision kinds salt the hash so drop/dup/delay rolls for the same
// attempt are independent.
const (
	kindDrop uint64 = iota + 1
	kindDup
	kindDelay
)

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll returns a uniform [0,1) draw that is a pure function of the plan
// seed and the attempt's identity.
func (fp *FaultPlan) roll(kind uint64, src, dst int, tag uint64, attempt int) float64 {
	h := fp.Seed ^ 0x9e3779b97f4a7c15
	for _, v := range [...]uint64{kind, uint64(src) + 1, uint64(dst) + 1, tag + 1, uint64(attempt) + 1} {
		h = mix64(h ^ v*0x9e3779b97f4a7c15)
	}
	return float64(h>>11) / (1 << 53)
}

// decide resolves the fate of one transmission attempt.
func (fp *FaultPlan) decide(src, dst int, tag uint64, attempt int, depart float64) (drop, dup bool, delay float64) {
	for _, w := range fp.Down {
		if w.covers(src, dst, depart) {
			return true, false, 0
		}
	}
	if fp.Drop > 0 && fp.roll(kindDrop, src, dst, tag, attempt) < fp.Drop {
		return true, false, 0
	}
	if fp.Dup > 0 && fp.roll(kindDup, src, dst, tag, attempt) < fp.Dup {
		dup = true
	}
	if fp.DelayProb > 0 && fp.roll(kindDelay, src, dst, tag, attempt) < fp.DelayProb {
		delay = fp.DelayTime
	}
	return drop, dup, delay
}

// CheckDeadline raises a typed ErrDeadline fault if the node's clock has
// passed the machine's simulated-time deadline. Send and Recv call it on
// entry; collectives call it once per step so a deadline fires between
// steps even when a phase is compute-bound.
func (n *Node) CheckDeadline() {
	if dl := n.m.Cfg.Deadline; dl > 0 && n.now > dl {
		panic(&FaultError{Node: n.ID, Op: "deadline", Src: -1, Dst: -1, Err: ErrDeadline})
	}
}

// abortFault builds the fault a node raises when released by a peer's
// failure.
func (n *Node) abortFault(op string, src, dst int, tag uint64) *FaultError {
	return &FaultError{Node: n.ID, Op: op, Src: src, Dst: dst, Tag: tag, Err: ErrAborted}
}
