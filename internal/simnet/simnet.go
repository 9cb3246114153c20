// Package simnet emulates a hypercube multicomputer in pure Go.
//
// Every processor node runs as its own goroutine; messages are real data
// copies delivered through buffered channels; and a deterministic
// logical-clock layer charges each transfer the paper's cost
//
//	hops * (t_s + t_w * words)
//
// under either of the paper's two machine models:
//
//   - OnePort: a node drives at most one outgoing and one incoming
//     transfer at a time (single-port, full-duplex). All of a node's
//     sends serialize through its clock, all receives serialize through
//     a single receive port, and a simultaneous send+receive pair
//     overlaps — which is what makes a Cannon shift step cost
//     t_s + t_w*m rather than twice that, exactly as the paper counts.
//   - MultiPort: a node may drive all log p links concurrently; each
//     cube dimension has its own outgoing and incoming port clock.
//
// Transfers between non-neighbors are routed e-cube (lowest dimension
// first) and charged store-and-forward: hops*(t_s + t_w*words), matching
// the paper's worst-case point-to-point charges. Intermediate nodes are
// not occupied (cut-through buffering); the lockstep algorithms in this
// repository are insensitive to that simplification.
//
// Determinism: receives match on (source, tag); a node's program order
// fixes the order port clocks advance, so simulated times are exactly
// reproducible run to run regardless of goroutine scheduling.
package simnet

import (
	"errors"
	"fmt"
	"sync"

	"hypermm/internal/hypercube"
	"hypermm/internal/matrix"
	"hypermm/internal/trace"
)

// PortModel selects the paper's one-port or multi-port machine model.
type PortModel int

const (
	// OnePort allows one send and one receive at a time per node.
	OnePort PortModel = iota
	// MultiPort allows concurrent transfers on every cube dimension.
	MultiPort
)

// String implements fmt.Stringer.
func (pm PortModel) String() string {
	switch pm {
	case OnePort:
		return "one-port"
	case MultiPort:
		return "multi-port"
	default:
		return fmt.Sprintf("PortModel(%d)", int(pm))
	}
}

// Config describes a simulated machine.
type Config struct {
	P     int       // number of processors; see Validate
	Ports PortModel // one-port or multi-port
	Ts    float64   // message start-up cost (per hop)
	Tw    float64   // transfer time per word (per hop)
	Tc    float64   // compute time per floating-point operation

	// Trace, when non-nil, records every send, receive and compute
	// span (in simulated time) for Gantt rendering and utilization
	// summaries. Tracing does not perturb the simulated clocks.
	Trace *trace.Log

	// Topology selects the interconnect (default Hypercube). The
	// collective library and most algorithms assume a hypercube; the
	// 2-D torus supports neighbor-structured algorithms like Cannon's.
	Topology Topology

	// Corrupt, when non-nil, is invoked on every message as it is
	// submitted to the network and may mutate the payload — a failure
	// injection hook for testing that end-to-end verification catches
	// corrupted transfers. It must be safe for concurrent use.
	Corrupt func(src, dst int, tag uint64, data []float64)

	// Faults, when non-empty, injects deterministic link failures
	// (drops, duplications, delays, link-down windows) and switches
	// every transfer to the acknowledged retry protocol of fault.go.
	// A nil or empty plan leaves the machine on its exact fault-free
	// path.
	Faults *FaultPlan

	// Deadline, when positive, bounds the simulated time a node program
	// may consume; a node whose clock passes it fails with ErrDeadline
	// at its next send, receive or collective step.
	Deadline float64
}

// Validate checks the machine inputs a caller supplies: P a positive
// power of two (a positive square on the 2-D torus), a known port
// model and non-negative t_s, t_w, t_c and deadline.
func (c Config) Validate() error {
	if c.Ports != OnePort && c.Ports != MultiPort {
		return fmt.Errorf("simnet: invalid %v", c.Ports)
	}
	if q := intSqrt(c.P); c.Topology == Torus2D && (c.P <= 0 || q*q != c.P) || c.Topology != Torus2D && !hypercube.IsPow2(c.P) {
		return fmt.Errorf("simnet: P=%d nodes cannot form a %v", c.P, c.Topology)
	}
	if c.Ts < 0 || c.Tw < 0 || c.Tc < 0 || c.Deadline < 0 {
		return fmt.Errorf("simnet: negative time parameter (t_s=%g t_w=%g t_c=%g deadline=%g)", c.Ts, c.Tw, c.Tc, c.Deadline)
	}
	return nil
}

// Msg is a delivered message.
type Msg struct {
	Src, Dst   int
	Tag        uint64
	Data       []float64
	Rows, Cols int // optional shape for matrix payloads (0 if raw)

	depart float64 // sender port start time
	delay  float64 // injected extra in-flight latency
	dup    bool    // injected duplicate: payload arrives twice
	hops   int
	inDim  int         // receiver-side port dimension (highest differing bit)
	box    *payloadBox // pooled payload buffer, nil for owned/empty payloads
}

// Words returns the message payload length in words.
func (m *Msg) Words() int { return len(m.Data) }

// Matrix reinterprets the payload as a dense matrix. Panics if the
// message did not carry a shape.
func (m *Msg) Matrix() *matrix.Dense {
	if m.Rows*m.Cols != len(m.Data) {
		panic(fmt.Sprintf("simnet: message %dx%d shape does not cover %d words", m.Rows, m.Cols, len(m.Data)))
	}
	return matrix.FromSlice(m.Rows, m.Cols, m.Data)
}

// Machine is a simulated multicomputer (hypercube by default).
type Machine struct {
	Cfg    Config
	Cube   hypercube.Cube // valid for the Hypercube topology
	torusQ int            // side length for the Torus2D topology
	nodes  []*Node

	// Abort machinery: the first node to fail records its fault and
	// closes down, releasing every node blocked in a receive or a
	// back-pressured send.
	down     chan struct{}
	downOnce sync.Once
	failMu   sync.Mutex
	failErr  error
	runWG    sync.WaitGroup
	panics   chan string
}

// NewMachine builds a machine with cfg.P processor nodes. It panics
// on a cfg that Validate rejects.
func NewMachine(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{Cfg: cfg, nodes: make([]*Node, cfg.P), down: make(chan struct{})}
	if cfg.Topology == Torus2D {
		m.torusQ = intSqrt(cfg.P)
	} else {
		m.Cube = hypercube.New(cfg.P)
	}
	cap := 8*m.numPorts() + 64
	for id := range m.nodes {
		m.nodes[id] = &Node{
			ID:       id,
			m:        m,
			inbox:    make(chan *Msg, cap),
			pend:     make(map[pendKey][]*Msg),
			sendPort: make([]float64, m.numPorts()),
			recvPort: make([]float64, m.numPorts()),
		}
	}
	return m
}

// Close returns the message buffers still parked in the machine's
// inboxes and pending queues to their pools. A machine holds no
// goroutines between runs, so Close is optional, idempotent, and leaves
// the machine usable; it must not race a run in flight.
func (m *Machine) Close() {
	for _, n := range m.nodes {
		n.releaseParked()
	}
}

// intSqrt returns the integer square root of x.
func intSqrt(x int) int {
	r := 0
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}

// Node returns the node with the given address.
func (m *Machine) Node(id int) *Node { return m.nodes[id] }

// P returns the number of processors.
func (m *Machine) P() int { return m.Cfg.P }

// NodeStats is a snapshot of one node's counters.
type NodeStats struct {
	ID        int
	Clock     float64 // local logical time at program end
	Msgs      int64   // messages sent
	Words     int64   // payload words sent (end to end)
	Startups  int64   // per-hop start-ups charged to this sender
	WordHops  int64   // payload words times hops
	Flops     int64   // floating-point operations executed
	Retries   int64   // lost transmission attempts recovered by retry
	PeakWords int     // largest NoteWords() observation (space accounting)
}

// RunStats aggregates a completed run.
type RunStats struct {
	Elapsed       float64 // max node clock: simulated makespan
	TotalMsgs     int64
	TotalWords    int64
	TotalStartups int64
	TotalWordHops int64
	TotalFlops    int64
	TotalRetries  int64
	TotalPeak     int // sum over nodes of PeakWords: aggregate space
	MaxPeak       int // largest single-node PeakWords
	Nodes         []NodeStats
}

// Run executes program on every node concurrently (SPMD) and returns
// aggregated statistics once all node programs have returned. A node
// panic — including a typed fault — is re-raised on the caller with the
// node id attached. Programs that may run under a fault plan or a
// deadline should call RunErr instead.
func (m *Machine) Run(program func(n *Node)) RunStats {
	rs, err := m.RunErr(program)
	if err != nil {
		panic("simnet: " + err.Error())
	}
	return rs
}

// RunErr executes program on every node concurrently (SPMD) and returns
// aggregated statistics once all node programs have returned. A typed
// fault raised by any node (ErrLinkDown, ErrDeadline) aborts the run:
// every other node is released from its blocking operation, and the
// originating fault is returned as an error that errors.Is can match.
// Any other node panic is re-raised with the node id attached.
func (m *Machine) RunErr(program func(n *Node)) (RunStats, error) {
	// Arm the abort machinery for this run. Node goroutines observe
	// these writes through the happens-before edge of their spawn.
	m.panics = make(chan string, len(m.nodes))
	m.down = make(chan struct{})
	m.downOnce = sync.Once{}
	m.failMu.Lock()
	m.failErr = nil
	m.failMu.Unlock()
	// Reset every node before starting any program: a node started
	// early may deliver its first messages to a peer whose reset has
	// not happened yet, and reset drains the inbox — the message would
	// be silently lost and its receiver would block forever (observed
	// as a rare large-p deadlock).
	for _, n := range m.nodes {
		n.reset()
	}
	m.runWG.Add(len(m.nodes))
	for _, n := range m.nodes {
		go n.runProgram(program)
	}
	m.runWG.Wait()
	select {
	case p := <-m.panics:
		panic("simnet: " + p)
	default:
	}
	m.failMu.Lock()
	err := m.failErr
	m.failMu.Unlock()
	if err != nil {
		// The abort left in-flight messages parked in inboxes and
		// pending queues; release their pooled buffers now so pool
		// accounting balances without waiting for the next run's reset.
		for _, n := range m.nodes {
			n.releaseParked()
		}
		return RunStats{}, err
	}
	return m.collect(), nil
}

// runProgram executes one run's program on the node, converting a typed
// fault panic into the machine's recorded failure (and any other panic
// into a re-raise on the run's caller), then signals completion.
func (n *Node) runProgram(program func(*Node)) {
	defer n.m.runWG.Done()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if fe, ok := r.(*FaultError); ok {
			n.m.recordFault(fe)
		} else {
			n.m.panics <- fmt.Sprintf("node %d: %v", n.ID, r)
		}
		// Release peers blocked in receives or back-pressured
		// sends so the run's wait terminates.
		n.m.abort()
	}()
	program(n)
}

// abort releases every node blocked in a receive or a back-pressured
// send. Idempotent.
func (m *Machine) abort() {
	m.downOnce.Do(func() { close(m.down) })
}

// recordFault keeps the most informative fault: an originating failure
// wins over the ErrAborted cascade it triggers on the other nodes, and
// among concurrent originating failures the lowest node ID wins — a
// deterministic tie-break, so the surfaced error does not depend on
// goroutine scheduling when many nodes fail in the same instant.
func (m *Machine) recordFault(fe *FaultError) {
	m.failMu.Lock()
	defer m.failMu.Unlock()
	cur, _ := m.failErr.(*FaultError)
	switch {
	case cur == nil:
		m.failErr = fe
	case errors.Is(cur.Err, ErrAborted) && !errors.Is(fe.Err, ErrAborted):
		m.failErr = fe
	case errors.Is(cur.Err, ErrAborted) == errors.Is(fe.Err, ErrAborted) && fe.Node < cur.Node:
		m.failErr = fe
	}
}

func (m *Machine) collect() RunStats {
	var rs RunStats
	rs.Nodes = make([]NodeStats, len(m.nodes))
	for i, n := range m.nodes {
		s := NodeStats{
			ID: n.ID, Clock: n.now, Msgs: n.msgs, Words: n.words,
			Startups: n.startups, WordHops: n.wordHops, Flops: n.flops,
			Retries: n.retries, PeakWords: n.peakWords,
		}
		rs.Nodes[i] = s
		if s.Clock > rs.Elapsed {
			rs.Elapsed = s.Clock
		}
		rs.TotalMsgs += s.Msgs
		rs.TotalWords += s.Words
		rs.TotalStartups += s.Startups
		rs.TotalWordHops += s.WordHops
		rs.TotalFlops += s.Flops
		rs.TotalRetries += s.Retries
		rs.TotalPeak += s.PeakWords
		if s.PeakWords > rs.MaxPeak {
			rs.MaxPeak = s.PeakWords
		}
	}
	return rs
}

// Node is one simulated processor. Node methods must only be called
// from within the node's own program goroutine.
type Node struct {
	ID int
	m  *Machine

	now      float64   // local logical clock
	sendPort []float64 // per-dimension outgoing port busy-until (multi-port)
	recvPort []float64 // per-dimension incoming port busy-until (multi-port)
	sendBusy float64   // single outgoing port busy-until (one-port)
	recvBusy float64   // single incoming port busy-until (one-port)

	inbox chan *Msg

	// pend indexes out-of-order arrivals by (source, tag) so match is
	// O(1) instead of a scan of every parked message. Queues are FIFO
	// per key; emptied queues keep their backing arrays for reuse. No
	// lock: during a run only the node's own goroutine touches it, and
	// the run-driving goroutine releases it (reset, RunErr's abort path,
	// Close) only between runs. The previous run's runWG.Wait orders
	// that after the node's accesses; the next run's goroutine spawn
	// orders it before them.
	pend map[pendKey][]*Msg

	msgs, words, startups, wordHops, flops, retries int64
	peakWords                                       int
}

func (n *Node) reset() {
	n.now, n.sendBusy, n.recvBusy = 0, 0, 0
	for d := range n.sendPort {
		n.sendPort[d], n.recvPort[d] = 0, 0
	}
	n.releaseParked()
	n.msgs, n.words, n.startups, n.wordHops, n.flops, n.retries = 0, 0, 0, 0, 0, 0
	n.peakWords = 0
}

// releaseParked returns every message stranded in the node's pending
// index or inbox (an aborted run leaves both populated) to the payload
// and header pools. Safe to call from the run-driving goroutine when no
// node program is executing.
func (n *Node) releaseParked() {
	for k, q := range n.pend {
		for i, msg := range q {
			msg.Release()
			q[i] = nil
		}
		n.pend[k] = q[:0]
	}
	for {
		select {
		case msg := <-n.inbox:
			msg.Release()
		default:
			return
		}
	}
}

// Machine returns the machine the node belongs to.
func (n *Node) Machine() *Machine { return n.m }

// P returns the machine size.
func (n *Node) P() int { return n.m.Cfg.P }

// Ports returns the machine's port model.
func (n *Node) Ports() PortModel { return n.m.Cfg.Ports }

// CubeDim returns log2(P).
func (n *Node) CubeDim() int { return n.m.Cube.Dim }

// Now returns the node's current logical time.
func (n *Node) Now() float64 { return n.now }

// cost returns the modeled transfer time for a payload over h hops.
//
// One-port: store-and-forward, h*(t_s + t_w*m) — the paper's charge for
// e.g. the 3DD first phase on a one-port machine. Multi-port:
// h*t_s + t_w*m — a multi-port node can pipeline a multi-hop transfer
// over edge-disjoint paths, which is how Table 2 arrives at DNS's
// multi-port coefficient 4 n^2/p^(2/3) and 3DD's 3 n^2/p^(2/3).
func (n *Node) cost(words, hops int) float64 {
	if n.m.Cfg.Ports == MultiPort {
		return float64(hops)*n.m.Cfg.Ts + n.m.Cfg.Tw*float64(words)
	}
	return float64(hops) * (n.m.Cfg.Ts + n.m.Cfg.Tw*float64(words))
}

// Send transmits data (copied) to the destination node with the given
// tag, charging the e-cube store-and-forward cost to the sender's
// outgoing port. Send never blocks on simulated time, only on inbox
// back-pressure. The copy lives in a pooled buffer; a receiver that
// fully consumes the payload may recycle it with Msg.Release.
func (n *Node) Send(dst int, tag uint64, data []float64) {
	n.sendShaped(dst, tag, data, 0, 0)
}

// SendM transmits a dense matrix block (copied), preserving its shape.
func (n *Node) SendM(dst int, tag uint64, blk *matrix.Dense) {
	n.sendShaped(dst, tag, blk.Data, blk.Rows, blk.Cols)
}

// SendOwned transmits data without the defensive copy: the receiver
// gets the caller's slice itself. Nobody may write data after the call
// except the receiver, and the receiver only when it knows the slice
// was built for it alone. Use it for freshly built buffers the sender
// never touches again — the lockstep collectives' per-step staging
// buffers — and for blocks every holder treats as read-only, which the
// sender may keep reading.
func (n *Node) SendOwned(dst int, tag uint64, data []float64) {
	n.sendCore(dst, tag, data, nil, 0, 0)
}

// SendMOwned is SendOwned for a shaped matrix block.
func (n *Node) SendMOwned(dst int, tag uint64, blk *matrix.Dense) {
	n.sendCore(dst, tag, blk.Data, nil, blk.Rows, blk.Cols)
}

// sendShaped is the copying path behind Send/SendM: the payload is
// duplicated into a pooled buffer so the caller keeps ownership of its
// slice.
func (n *Node) sendShaped(dst int, tag uint64, data []float64, rows, cols int) {
	box := getPayload(len(data))
	var cp []float64
	if box != nil {
		cp = box.d
		copy(cp, data)
	}
	n.sendCore(dst, tag, cp, box, rows, cols)
}

// sendCore submits a payload the network now owns (pooled copy or
// relinquished caller slice) and charges the transfer.
func (n *Node) sendCore(dst int, tag uint64, data []float64, box *payloadBox, rows, cols int) {
	if dst < 0 || dst >= n.m.Cfg.P {
		panic(fmt.Sprintf("simnet: send to node %d out of range [0,%d)", dst, n.m.Cfg.P))
	}
	if dl := n.m.Cfg.Deadline; dl > 0 && n.now > dl {
		// Inline CheckDeadline that first returns the payload box the
		// copying path already checked out; the raised fault is
		// field-for-field identical.
		if box != nil {
			payloadsInFlight.Add(-1)
			putPayload(box)
		}
		panic(&FaultError{Node: n.ID, Op: "deadline", Src: -1, Dst: -1, Err: ErrDeadline})
	}
	msg := msgPool.Get().(*Msg)
	msgsInFlight.Add(1)
	*msg = Msg{Src: n.ID, Dst: dst, Tag: tag, Data: data, Rows: rows, Cols: cols, box: box}
	if f := n.m.Cfg.Corrupt; f != nil && dst != n.ID {
		if box == nil {
			// An owned payload may be shared read-only with the
			// sender: corrupt a copy, as a faulty link would.
			data = append([]float64(nil), data...)
			msg.Data = data
		}
		f(n.ID, dst, tag, data)
	}
	if dst == n.ID {
		msg.depart = n.now
		n.enqueuePending(msg)
		return
	}
	msg.hops = n.m.hops(n.ID, dst)
	outDim := n.m.outPort(n.ID, dst)
	msg.inDim = n.m.inPort(n.ID, dst)
	c := n.cost(len(data), msg.hops)

	if fp := n.m.Cfg.Faults; fp.active() {
		n.sendReliable(fp, msg, outDim, c)
		return
	}

	var start float64
	switch n.m.Cfg.Ports {
	case OnePort:
		// The single outgoing port serializes through the node clock:
		// the node cannot compute or start another send meanwhile.
		start = maxf(n.now, n.sendBusy)
		n.sendBusy = start + c
		n.now = n.sendBusy
	case MultiPort:
		// Only the dimension's outgoing port is occupied; the node may
		// immediately issue transfers on other dimensions or compute.
		start = maxf(n.now, n.sendPort[outDim])
		n.sendPort[outDim] = start + c
	}
	msg.depart = start
	if tr := n.m.Cfg.Trace; tr != nil {
		tr.Add(trace.Event{Node: n.ID, Kind: trace.Send, Start: start, End: start + c, Peer: dst, Words: len(data), Tag: tag})
	}

	n.msgs++
	n.words += int64(len(data))
	n.startups += int64(msg.hops)
	n.wordHops += int64(len(data) * msg.hops)

	n.deliver(msg)
}

// sendReliable is the acknowledged transfer of the fault-injection
// protocol: every attempt transmits the payload; a lost attempt charges
// the ack timeout plus exponential backoff before the retransmission;
// the delivered attempt charges the one-word ack's return trip. The
// retry budget exhausting raises a typed ErrLinkDown fault.
func (n *Node) sendReliable(fp *FaultPlan, msg *Msg, outDim int, c float64) {
	ackC := n.cost(1, msg.hops)
	maxR := fp.maxRetries()
	for attempt := 0; ; attempt++ {
		var start float64
		if n.m.Cfg.Ports == OnePort {
			start = maxf(n.now, n.sendBusy)
		} else {
			start = maxf(n.now, n.sendPort[outDim])
		}
		drop, dup, delay := fp.decide(n.ID, msg.Dst, msg.Tag, attempt, start)
		// The attempt put the payload on the wire either way.
		n.msgs++
		n.words += int64(len(msg.Data))
		n.startups += int64(msg.hops)
		n.wordHops += int64(len(msg.Data) * msg.hops)
		if tr := n.m.Cfg.Trace; tr != nil {
			tr.Add(trace.Event{Node: n.ID, Kind: trace.Send, Start: start, End: start + c, Peer: msg.Dst, Words: len(msg.Data), Tag: msg.Tag})
		}
		if !drop {
			// Delivered: the sender holds the port until the ack is in
			// hand — data transfer, injected latency, one-word ack back.
			n.occupySend(outDim, start+c+delay+ackC)
			n.msgs++
			n.words++
			n.startups += int64(msg.hops)
			n.wordHops += int64(msg.hops)
			if dup {
				// The network duplicated the payload in flight: count
				// the extra copy here (sender counters are the only
				// goroutine-safe home); the receiver charges its port.
				n.msgs++
				n.words += int64(len(msg.Data))
				n.startups += int64(msg.hops)
				n.wordHops += int64(len(msg.Data) * msg.hops)
			}
			msg.depart = start
			msg.delay = delay
			msg.dup = dup
			n.deliver(msg)
			return
		}
		// Lost: wait out the ack timeout, back off, retransmit.
		n.retries++
		n.occupySend(outDim, start+c+fp.ackTimeout(c+ackC)+fp.backoff(n.m.Cfg.Ts, attempt))
		if attempt >= maxR {
			// The payload never reached an inbox; recycle its buffers
			// before raising the fault (capture the coordinates first —
			// Release recycles the header).
			dst, tag := msg.Dst, msg.Tag
			msg.Release()
			panic(&FaultError{Node: n.ID, Op: "send", Src: n.ID, Dst: dst, Tag: tag, Attempts: attempt + 1, Err: ErrLinkDown})
		}
		if dl := n.m.Cfg.Deadline; dl > 0 && n.now > dl {
			// Inline CheckDeadline with the in-flight message released:
			// the fault (fields included) is identical, but the pooled
			// payload and header are not stranded.
			msg.Release()
			panic(&FaultError{Node: n.ID, Op: "deadline", Src: -1, Dst: -1, Err: ErrDeadline})
		}
	}
}

// occupySend marks the outgoing path busy until t: the node clock for a
// one-port machine, the dimension's port for a multi-port one.
func (n *Node) occupySend(outDim int, t float64) {
	if n.m.Cfg.Ports == OnePort {
		n.sendBusy = t
		n.now = t
	} else {
		n.sendPort[outDim] = t
	}
}

// deliver hands the message to the destination inbox, backing out with a
// typed abort fault if the run is torn down while blocked on
// back-pressure.
func (n *Node) deliver(msg *Msg) {
	// Fast path: the inbox is buffered and almost never full, and a
	// non-blocking send on a single channel skips the general select
	// machinery on the hottest line of the emulator.
	select {
	case n.m.nodes[msg.Dst].inbox <- msg:
		return
	default:
	}
	select {
	case n.m.nodes[msg.Dst].inbox <- msg:
	case <-n.m.down:
		// The message never entered an inbox, so nothing downstream can
		// release it: recycle it here before backing out. Capture the
		// fault coordinates first — Release recycles the header.
		dst, tag := msg.Dst, msg.Tag
		msg.Release()
		panic(n.abortFault("send", n.ID, dst, tag))
	}
}

// Recv blocks until the message with the given source and tag arrives,
// charges the receive-port occupancy, and advances the node clock to
// the arrival time (the data dependency).
func (n *Node) Recv(src int, tag uint64) *Msg {
	n.CheckDeadline()
	msg := n.match(src, tag)
	if msg.Src == n.ID { // self-delivery is free
		if msg.depart > n.now {
			n.now = msg.depart
		}
		return msg
	}
	c := n.cost(len(msg.Data), msg.hops)
	dep := msg.depart + msg.delay // injected latency shifts the arrival
	var arrival float64
	switch n.m.Cfg.Ports {
	case OnePort:
		start := maxf(dep, n.recvBusy)
		arrival = start + c
		n.recvBusy = arrival
		if msg.dup {
			// The duplicate occupies the receive port for a second
			// transfer; the data dependency is met by the first copy.
			n.recvBusy += c
		}
	case MultiPort:
		start := maxf(dep, n.recvPort[msg.inDim])
		arrival = start + c
		n.recvPort[msg.inDim] = arrival
		if msg.dup {
			n.recvPort[msg.inDim] += c
		}
	}
	if tr := n.m.Cfg.Trace; tr != nil {
		tr.Add(trace.Event{Node: n.ID, Kind: trace.Recv, Start: arrival - c, End: arrival, Peer: msg.Src, Words: len(msg.Data), Tag: tag})
	}
	if arrival > n.now {
		n.now = arrival
	}
	return msg
}

// RecvM receives a shaped matrix message.
func (n *Node) RecvM(src int, tag uint64) *matrix.Dense {
	return n.Recv(src, tag).Matrix()
}

// pendKey identifies a receive rendezvous: messages park and match on
// exactly (source, tag).
type pendKey struct {
	src int
	tag uint64
}

// enqueuePending parks a message that no receive is waiting for yet.
func (n *Node) enqueuePending(msg *Msg) {
	key := pendKey{msg.Src, msg.Tag}
	n.pend[key] = append(n.pend[key], msg)
}

// takePending pops the oldest parked message for key, if any. The
// backing array is retained (shifted down) so steady-state matching
// does not allocate.
func (n *Node) takePending(key pendKey) *Msg {
	q := n.pend[key]
	if len(q) == 0 {
		return nil
	}
	msg := q[0]
	copy(q, q[1:])
	q[len(q)-1] = nil
	n.pend[key] = q[:len(q)-1]
	return msg
}

// match returns the first pending or incoming message from src with tag.
func (n *Node) match(src int, tag uint64) *Msg {
	key := pendKey{src, tag}
	if msg := n.takePending(key); msg != nil {
		return msg
	}
	for {
		// Fast path: drain whatever already sits in the inbox with
		// non-blocking receives before paying for the two-case select.
		// Teardown stays responsive — the inbox holds finitely many
		// messages, so a node that never matches falls through to the
		// blocking select below and sees the down signal there.
		select {
		case msg := <-n.inbox:
			if msg.Src == src && msg.Tag == tag {
				return msg
			}
			n.enqueuePending(msg)
			continue
		default:
		}
		select {
		case msg := <-n.inbox:
			if msg.Src == src && msg.Tag == tag {
				return msg
			}
			n.enqueuePending(msg)
		case <-n.m.down:
			// The run is being torn down because a peer failed: back
			// out instead of blocking on a message that will never come.
			panic(n.abortFault("recv", src, n.ID, tag))
		}
	}
}

// Compute charges flops floating-point operations to the node clock.
func (n *Node) Compute(flops int64) {
	if flops < 0 {
		panic("simnet: negative flop count")
	}
	n.flops += flops
	d := float64(flops) * n.m.Cfg.Tc
	if tr := n.m.Cfg.Trace; tr != nil && d > 0 {
		tr.Add(trace.Event{Node: n.ID, Kind: trace.Compute, Start: n.now, End: n.now + d, Peer: -1, Words: 0})
	}
	n.now += d
}

// MulAdd performs c += a*b locally and charges the flop cost.
func (n *Node) MulAdd(c, a, b *matrix.Dense) {
	matrix.MulAdd(c, a, b)
	n.Compute(matrix.MulFlops(a.Rows, a.Cols, b.Cols))
}

// Mul returns a*b, charging the flop cost.
func (n *Node) Mul(a, b *matrix.Dense) *matrix.Dense {
	c := matrix.Mul(a, b)
	n.Compute(matrix.MulFlops(a.Rows, a.Cols, b.Cols))
	return c
}

// NoteWords records an observation of the node's current live data
// words; the maximum over observations is reported as PeakWords for the
// paper's Table 3 space accounting. Algorithms call it at their peak
// holding points.
func (n *Node) NoteWords(words int) {
	if words > n.peakWords {
		n.peakWords = words
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func lowestBit(x int) int {
	if x == 0 {
		panic("simnet: lowestBit(0)")
	}
	d := 0
	for x&1 == 0 {
		x >>= 1
		d++
	}
	return d
}

func highestBit(x int) int {
	if x == 0 {
		panic("simnet: highestBit(0)")
	}
	d := -1
	for x != 0 {
		x >>= 1
		d++
	}
	return d
}
