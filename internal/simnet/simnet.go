// Package simnet emulates a hypercube multicomputer in pure Go.
//
// Every processor node runs its program as a coroutine on one executor
// (the caller's goroutine); messages are real data delivered into the
// receiver's pending queue; and a deterministic logical-clock layer
// charges each transfer the paper's cost
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
// Execution (exec.go): a send never blocks; a receive parks its node
// until the message it names arrives; a product large enough for the
// GEMM kernel to pack runs on its own goroutine while the executor runs
// other nodes. The first typed fault stops the run, and a run in which
// every unfinished node waits on a message nobody will send returns
// ErrDeadlock instead of hanging.
//
// Determinism: receives match on (source, tag) and no node reads
// another's clock, so a node's program order alone fixes the order its
// port clocks advance: simulated times are exactly reproducible under
// any execution order.
package simnet

import (
	"fmt"
	"math"

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
	if pm == OnePort || pm == MultiPort {
		return [...]string{"one-port", "multi-port"}[pm]
	}
	return fmt.Sprintf("PortModel(%d)", int(pm))
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
// model and t_s, t_w, t_c and deadline neither negative nor NaN.
func (c Config) Validate() error {
	if c.Ports != OnePort && c.Ports != MultiPort {
		return fmt.Errorf("simnet: invalid %v", c.Ports)
	}
	if q := int(math.Sqrt(float64(c.P))); c.Topology == Torus2D && (c.P <= 0 || q*q != c.P) || c.Topology != Torus2D && !hypercube.IsPow2(c.P) {
		return fmt.Errorf("simnet: P=%d nodes cannot form a %v", c.P, c.Topology)
	}
	if !(c.Ts >= 0 && c.Tw >= 0 && c.Tc >= 0 && c.Deadline >= 0) {
		return fmt.Errorf("simnet: negative or NaN time parameter (t_s=%g t_w=%g t_c=%g deadline=%g)", c.Ts, c.Tw, c.Tc, c.Deadline)
	}
	return nil
}

// Msg is a delivered message. Recv returns it by value: the header
// lives in the receiver's pending queue until it is matched, so a
// message costs no allocation beyond its payload.
type Msg struct {
	Src, Dst   int
	Tag        uint64
	Data       []float64
	Rows, Cols int // optional shape for matrix payloads (0 if raw)

	blk    *matrix.Dense // the sender's block, for owned matrix sends
	free   *freeList     // the free list Data returns to, nil for owned/empty payloads
	depart float64       // sender port start time plus any injected in-flight latency
	hops   int32
	inDim  int32 // receiver-side port dimension (highest differing bit)
	dup    bool  // injected duplicate: payload arrives twice
}

// Matrix reinterprets the payload as a dense matrix: the sender's own
// block for an owned matrix send, a view of the payload otherwise.
// Panics if the message did not carry a shape.
func (m *Msg) Matrix() *matrix.Dense {
	if m.blk != nil {
		return m.blk
	}
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

	free *freeList // payload buffers of copying sends, held during a run
	exec executor  // run queue, compute hand-offs and the run's failure

	// unreleased counts the payload buffers the last run handed out
	// and never got back (test instrumentation): receivers that keep a
	// payload legitimately leave it nonzero.
	unreleased int
}

// NewMachine builds a machine with cfg.P processor nodes. It panics
// on a cfg that Validate rejects.
func NewMachine(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{Cfg: cfg, nodes: make([]*Node, cfg.P)}
	if cfg.Topology == Torus2D {
		m.torusQ = int(math.Sqrt(float64(cfg.P)))
	} else {
		m.Cube = hypercube.New(cfg.P)
	}
	// One allocation each for the nodes, their port clocks and the
	// first two slots of their pending queues.
	np := m.numPorts()
	nodes := make([]Node, cfg.P)
	ports := make([]float64, 2*cfg.P*np)
	pending := make([]Msg, 2*cfg.P)
	for id := range m.nodes {
		n := &nodes[id]
		*n = Node{
			ID:      id,
			m:       m,
			waitSrc: -1,
			ports:   ports[2*id*np : (2*id+2)*np : (2*id+2)*np],
			pending: pending[2*id : 2*id : 2*id+2],
		}
		m.nodes[id] = n
	}
	return m
}

// Node returns the node with the given address.
func (m *Machine) Node(id int) *Node { return m.nodes[id] }

// P returns the number of processors.
func (m *Machine) P() int { return m.Cfg.P }

// NodeStats is a snapshot of one node at the end of a run.
type NodeStats struct {
	ID    int
	Clock float64 // local logical time at program end
	Counters
}

// Counters are the totals a node accumulates during a run.
type Counters struct {
	Msgs      int64 // messages sent
	Words     int64 // payload words sent (end to end)
	Startups  int64 // per-hop start-ups charged to this sender
	WordHops  int64 // payload words times hops
	Flops     int64 // floating-point operations executed
	Retries   int64 // lost transmission attempts recovered by retry
	PeakWords int   // largest NoteWords() observation (space accounting)
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

// Run executes program on every node (SPMD) and returns aggregated
// statistics once all node programs have returned. A node panic —
// including a typed fault — is re-raised on the caller with the node
// id attached. Programs that may run under a fault plan or a deadline
// should call RunErr instead.
func (m *Machine) Run(program func(n *Node)) RunStats {
	rs, err := m.RunErr(program)
	if err != nil {
		panic("simnet: " + err.Error())
	}
	return rs
}

// collect aggregates the node counters of a completed run.
func (m *Machine) collect() RunStats {
	var rs RunStats
	rs.Nodes = make([]NodeStats, len(m.nodes))
	for i, n := range m.nodes {
		s := NodeStats{ID: n.ID, Clock: n.now, Counters: n.st}
		rs.Nodes[i] = s
		rs.Elapsed = max(rs.Elapsed, s.Clock)
		rs.TotalMsgs += s.Msgs
		rs.TotalWords += s.Words
		rs.TotalStartups += s.Startups
		rs.TotalWordHops += s.WordHops
		rs.TotalFlops += s.Flops
		rs.TotalRetries += s.Retries
		rs.TotalPeak += s.PeakWords
		rs.MaxPeak = max(rs.MaxPeak, s.PeakWords)
	}
	return rs
}

// Node is one simulated processor. Node methods must only be called
// from within the node's own program.
type Node struct {
	ID int
	m  *Machine

	now      float64   // local logical clock
	ports    []float64 // multi-port busy-until per dimension: outgoing, then incoming
	sendBusy float64   // single outgoing port busy-until (one-port)
	recvBusy float64   // single incoming port busy-until (one-port)

	// pending[head:] holds the delivered messages no Recv has matched
	// yet, in arrival order; a receive takes the first one from its
	// (source, tag), so each pair is FIFO. Emptied, it keeps its
	// backing array for the next run.
	pending []Msg
	head    int
	// waitSrc and waitTag name the message a node parked in Recv waits
	// for; waitSrc is -1 when the node is not parked in a receive.
	waitSrc int
	waitTag uint64

	co   coroutine // the node program's coroutine during a run
	done chan any  // a handed-off product's outcome: nil, or its panic

	st Counters // the node's counters during a run
}

func (n *Node) reset() {
	n.now, n.sendBusy, n.recvBusy = 0, 0, 0
	clear(n.ports)
	n.waitSrc = -1
	n.st = Counters{}
}

// dropPending releases every message an aborted run, or a program that
// sent more than it received, left in the node's pending queue.
func (n *Node) dropPending() {
	for i := n.head; i < len(n.pending); i++ {
		n.pending[i].Release()
	}
	clear(n.pending)
	n.pending, n.head = n.pending[:0], 0
}

// popHead removes the message at the head of the pending queue.
func (n *Node) popHead() {
	n.pending[n.head] = Msg{}
	if n.head++; n.head == len(n.pending) {
		n.pending, n.head = n.pending[:0], 0
	}
}

// push appends a delivered message to the pending queue, reusing the
// room taken messages left at its front before growing it. Growing
// clears the old array: it may be the machine's shared slab, where
// stale copies would keep their payloads alive.
func (n *Node) push(msg *Msg) {
	if old := n.pending; len(old) == cap(old) {
		if n.head > 0 {
			k := copy(old, old[n.head:])
			clear(old[k:])
			n.pending, n.head = old[:k], 0
		} else {
			n.pending = append(make([]Msg, 0, max(2*cap(old), 2)), old...)
			clear(old)
		}
	}
	n.pending = append(n.pending, *msg)
}

// P returns the machine size.
func (n *Node) P() int { return n.m.Cfg.P }

// Ports returns the machine's port model.
func (n *Node) Ports() PortModel { return n.m.Cfg.Ports }

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
// outgoing port. Send never blocks. The copy lives in a buffer from the
// machine's free list; a receiver that fully consumes the payload may
// recycle it with Msg.Release.
func (n *Node) Send(dst int, tag uint64, data []float64) {
	n.sendCopy(dst, tag, data, 0, 0)
}

// SendM transmits a dense matrix block (copied), preserving its shape.
func (n *Node) SendM(dst int, tag uint64, blk *matrix.Dense) {
	n.sendCopy(dst, tag, blk.Data, blk.Rows, blk.Cols)
}

// SendOwned transmits data without the defensive copy: the receiver
// gets the caller's slice itself. Nobody may write data after the call
// except the receiver, and the receiver only when it knows the slice
// was built for it alone. Use it for freshly built buffers the sender
// never touches again — the lockstep collectives' per-step staging
// buffers — and for blocks every holder treats as read-only, which the
// sender may keep reading.
func (n *Node) SendOwned(dst int, tag uint64, data []float64) {
	n.sendCore(&Msg{Dst: dst, Tag: tag, Data: data})
}

// SendMOwned is SendOwned for a shaped matrix block: the receiver's
// RecvM returns blk itself.
func (n *Node) SendMOwned(dst int, tag uint64, blk *matrix.Dense) {
	n.sendCore(&Msg{Dst: dst, Tag: tag, Data: blk.Data, Rows: blk.Rows, Cols: blk.Cols, blk: blk})
}

// sendCopy is the copying path behind Send/SendM: the payload is
// duplicated into a free-list buffer so the caller keeps ownership of
// its slice.
func (n *Node) sendCopy(dst int, tag uint64, data []float64, rows, cols int) {
	msg := Msg{Dst: dst, Tag: tag, Rows: rows, Cols: cols}
	if len(data) > 0 {
		msg.Data, msg.free = n.m.free.get(len(data))
		copy(msg.Data, data)
	}
	n.sendCore(&msg)
}

// sendCore submits a payload the network now owns (a free-list copy
// or a relinquished caller slice) and charges the transfer.
func (n *Node) sendCore(msg *Msg) {
	dst := msg.Dst
	if dst < 0 || dst >= n.m.Cfg.P {
		panic(fmt.Sprintf("simnet: send to node %d out of range [0,%d)", dst, n.m.Cfg.P))
	}
	if dl := n.m.Cfg.Deadline; dl > 0 && n.now > dl {
		msg.Release() // the copy never reached the network
		n.CheckDeadline()
	}
	msg.Src = n.ID
	if f := n.m.Cfg.Corrupt; f != nil && dst != n.ID {
		if msg.free == nil {
			// An owned payload may be shared read-only with the
			// sender: corrupt a copy, as a faulty link would.
			msg.Data = append([]float64(nil), msg.Data...)
			msg.blk = nil
		}
		f(n.ID, dst, msg.Tag, msg.Data)
	}
	if dst == n.ID {
		msg.depart = n.now
		n.m.deliver(msg)
		return
	}
	hops := n.m.hops(n.ID, dst)
	msg.hops = int32(hops)
	outDim := n.m.outPort(n.ID, dst)
	msg.inDim = int32(n.m.inPort(n.ID, dst))
	words := len(msg.Data)
	c := n.cost(words, hops)

	if fp := n.m.Cfg.Faults; fp.active() {
		n.sendReliable(fp, msg, outDim, c)
		return
	}

	start := n.sendStart(outDim)
	n.occupySend(outDim, start+c)
	msg.depart = start
	if tr := n.m.Cfg.Trace; tr != nil {
		tr.Add(trace.Event{Node: n.ID, Kind: trace.Send, Start: start, End: start + c, Peer: dst, Words: words, Tag: msg.Tag})
	}

	n.wire(words, hops)
	n.m.deliver(msg)
}

// wire counts one transfer of words over hops against the sender.
func (n *Node) wire(words, hops int) {
	n.st.Msgs++
	n.st.Words += int64(words)
	n.st.Startups += int64(hops)
	n.st.WordHops += int64(words * hops)
}

// sendReliable is the acknowledged transfer of the fault-injection
// protocol: every attempt transmits the payload; a lost attempt charges
// the ack timeout plus exponential backoff before the retransmission;
// the delivered attempt charges the one-word ack's return trip. The
// retry budget exhausting raises a typed ErrLinkDown fault.
func (n *Node) sendReliable(fp *FaultPlan, msg *Msg, outDim int, c float64) {
	hops, words := int(msg.hops), len(msg.Data)
	ackC := n.cost(1, hops)
	maxR := fp.maxRetries()
	for attempt := 0; ; attempt++ {
		start := n.sendStart(outDim)
		drop, dup, delay := fp.decide(n.ID, msg.Dst, msg.Tag, attempt, start)
		n.wire(words, hops) // the attempt put the payload on the wire either way
		if tr := n.m.Cfg.Trace; tr != nil {
			tr.Add(trace.Event{Node: n.ID, Kind: trace.Send, Start: start, End: start + c, Peer: msg.Dst, Words: len(msg.Data), Tag: msg.Tag})
		}
		if !drop {
			// Delivered: the sender holds the port until the ack is in
			// hand — data transfer, injected latency, one-word ack back.
			n.occupySend(outDim, start+c+delay+ackC)
			n.wire(1, hops)
			if dup {
				// The network duplicated the payload in flight: count
				// the extra copy on the sender, like every other wire
				// transfer; the receiver charges its port.
				n.wire(words, hops)
			}
			msg.depart = start + delay // the injected latency shifts the arrival
			msg.dup = dup
			n.m.deliver(msg)
			return
		}
		// Lost: wait out the ack timeout, back off, retransmit.
		n.st.Retries++
		n.occupySend(outDim, start+c+fp.ackTimeout(c+ackC)+fp.backoff(n.m.Cfg.Ts, attempt))
		if attempt >= maxR {
			// The payload never reached a receiver; recycle its buffer
			// before raising the fault.
			msg.Release()
			panic(&FaultError{Node: n.ID, Op: "send", Src: n.ID, Dst: msg.Dst, Tag: msg.Tag, Attempts: attempt + 1, Err: ErrLinkDown})
		}
		if dl := n.m.Cfg.Deadline; dl > 0 && n.now > dl {
			msg.Release()
			n.CheckDeadline()
		}
	}
}

// sendStart returns when a transfer out of port outDim can start.
func (n *Node) sendStart(outDim int) float64 {
	if n.m.Cfg.Ports == OnePort {
		return max(n.now, n.sendBusy)
	}
	return max(n.now, n.ports[outDim])
}

// occupySend marks the outgoing path busy until t. A one-port node's
// single outgoing port serializes through its clock: it cannot compute
// or start another send meanwhile. A multi-port node occupies only the
// dimension's port and may at once use other dimensions or compute.
func (n *Node) occupySend(outDim int, t float64) {
	if n.m.Cfg.Ports == OnePort {
		n.sendBusy = t
		n.now = t
	} else {
		n.ports[outDim] = t
	}
}

// Recv waits until the message with the given source and tag arrives,
// charges the receive-port occupancy, and advances the node clock to
// the arrival time (the data dependency).
func (n *Node) Recv(src int, tag uint64) Msg {
	msg := *n.recv(src, tag)
	n.popHead()
	return msg
}

// RecvM receives a shaped matrix message: the sender's block itself
// for SendMOwned, a view of the payload copy for SendM.
func (n *Node) RecvM(src int, tag uint64) *matrix.Dense {
	blk := n.recv(src, tag).Matrix()
	n.popHead()
	return blk
}

// recv is Recv up to handing the message over: it leaves the message,
// charged, at the head of the pending queue for the caller to read
// before popHead.
func (n *Node) recv(src int, tag uint64) *Msg {
	n.CheckDeadline()
	msg := n.match(src, tag)
	if msg.Src == n.ID { // self-delivery is free
		n.now = max(n.now, msg.depart)
		return msg
	}
	c := n.cost(len(msg.Data), int(msg.hops))
	port := &n.recvBusy // one-port: the single receive port
	if n.m.Cfg.Ports == MultiPort {
		port = &n.ports[len(n.ports)/2+int(msg.inDim)]
	}
	arrival := max(msg.depart, *port) + c
	*port = arrival
	if msg.dup {
		// The duplicate occupies the receive port for a second
		// transfer; the data dependency is met by the first copy.
		*port += c
	}
	if tr := n.m.Cfg.Trace; tr != nil {
		tr.Add(trace.Event{Node: n.ID, Kind: trace.Recv, Start: arrival - c, End: arrival, Peer: msg.Src, Words: len(msg.Data), Tag: tag})
	}
	n.now = max(n.now, arrival)
	return msg
}

// match moves the first pending message from src with tag to the head
// of the pending queue and returns it there, parking the node until
// one is delivered. Moving the messages before it up one slot keeps
// arrival order, and the usual in-order receive moves nothing.
func (n *Node) match(src int, tag uint64) *Msg {
	for {
		for i := n.head; i < len(n.pending); i++ {
			if n.pending[i].Src != src || n.pending[i].Tag != tag {
				continue
			}
			if i != n.head {
				msg := n.pending[i]
				copy(n.pending[n.head+1:i+1], n.pending[n.head:i])
				n.pending[n.head] = msg
			}
			return &n.pending[n.head]
		}
		n.waitSrc, n.waitTag = src, tag
		if !n.park() {
			n.waitSrc = -1
			panic(n.abortFault("recv", src, n.ID, tag))
		}
	}
}

// Compute charges flops floating-point operations to the node clock.
func (n *Node) Compute(flops int64) {
	if flops < 0 {
		panic("simnet: negative flop count")
	}
	n.st.Flops += flops
	d := float64(flops) * n.m.Cfg.Tc
	if tr := n.m.Cfg.Trace; tr != nil && d > 0 {
		tr.Add(trace.Event{Node: n.ID, Kind: trace.Compute, Start: n.now, End: n.now + d, Peer: -1, Words: 0})
	}
	n.now += d
}

// MulAdd performs c += a*b locally and charges the flop cost. A
// product large enough for the kernel to pack is handed off (exec.go):
// it may run on its own goroutine while the executor runs other nodes.
func (n *Node) MulAdd(c, a, b *matrix.Dense) {
	n.Compute(matrix.MulFlops(a.Rows, a.Cols, b.Cols))
	if matrix.Packs(a.Rows, a.Cols, b.Cols) {
		n.handOff(func() { matrix.MulAdd(c, a, b) })
	} else {
		matrix.MulAdd(c, a, b)
	}
}

// MulSumCols returns sum_m as[m]*bs[m] as groups equal column groups,
// each bit-identical to the same columns of the sum MulAdd builds, and
// charges each term as one product. The terms are one product of the
// as[m] side by side and the bs[m] stacked; when the kernel would pack
// that, they and the groups' allocation are one hand-off. Panics unless
// groups divides the columns.
func (n *Node) MulSumCols(groups int, as, bs []*matrix.Dense) []*matrix.Dense {
	if bs[0].Cols%groups != 0 {
		panic(fmt.Sprintf("simnet: %d columns not divisible into %d groups", bs[0].Cols, groups))
	}
	k := 0 // the columns of as[m] concatenated
	for m, a := range as {
		k += a.Cols
		n.Compute(matrix.MulFlops(a.Rows, a.Cols, bs[m].Cols))
	}
	if !matrix.Packs(as[0].Rows, k, bs[0].Cols) {
		return mulSumCols(groups, as, bs)
	}
	var out []*matrix.Dense
	n.handOff(func() { out = mulSumCols(groups, as, bs) })
	return out
}

func mulSumCols(groups int, as, bs []*matrix.Dense) []*matrix.Dense {
	out := matrix.NewBatch(groups, as[0].Rows, bs[0].Cols/groups)
	for m, a := range as {
		for l, c := range out {
			matrix.MulAddCols(c, a, bs[m], l*c.Cols)
		}
	}
	return out
}

// Mul returns a*b, charging the flop cost. A product the kernel would
// pack is handed off as MulAdd's is, its allocation included.
func (n *Node) Mul(a, b *matrix.Dense) *matrix.Dense {
	n.Compute(matrix.MulFlops(a.Rows, a.Cols, b.Cols))
	if !matrix.Packs(a.Rows, a.Cols, b.Cols) {
		return matrix.Mul(a, b)
	}
	var c *matrix.Dense
	n.handOff(func() { c = matrix.Mul(a, b) })
	return c
}

// NoteWords records an observation of the node's current live data
// words; the maximum over observations is reported as PeakWords for the
// paper's Table 3 space accounting. Algorithms call it at their peak
// holding points.
func (n *Node) NoteWords(words int) {
	if words > n.st.PeakWords {
		n.st.PeakWords = words
	}
}
