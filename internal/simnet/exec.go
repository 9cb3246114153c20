//go:build go1.23

package simnet

import (
	"errors"
	"fmt"
	"iter"
	"runtime"
	"strings"
	"sync/atomic"
)

// executor is a machine's per-run scheduling state: node programs run
// as coroutines (iter.Pull) on the goroutine that calls RunErr, from a
// run queue whose order is a function of the programs alone (handOff).
// The order moves host time only, and which node a failing run stops at.
type executor struct {
	runq        []*Node // ring buffer (deque) of queued nodes; a node is queued at most once
	head, count int
	procs       int32 // GOMAXPROCS when the run started

	err      error  // the run's failure: the first typed fault, or a deadlock
	panicked string // a foreign node panic, re-raised on the caller

	seed uint64 // test hook: nonzero picks queued nodes in a seeded order
}

// coroutine is a node program's resumable execution.
type coroutine struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// ErrDeadlock reports a run in which every unfinished node waits for a
// message no node will send. The error RunErr returns wraps it and
// names each waiting node with the (src, tag) it waits for.
var ErrDeadlock = errors.New("deadlock: every unfinished node waits on a receive")

// RunErr executes program on every node (SPMD) and returns aggregated
// statistics once all node programs have returned. The first typed
// fault a node raises (ErrLinkDown, ErrDeadline) stops the run: every
// other unfinished node is resumed out of its wait with an ErrAborted
// fault, and the originating fault is returned as an error that
// errors.Is can match. A run that can make no progress returns an
// ErrDeadlock. Any other node panic is re-raised with the node id
// attached.
func (m *Machine) RunErr(program func(n *Node)) (RunStats, error) {
	x := &m.exec
	x.err, x.panicked = nil, ""
	x.procs = int32(runtime.GOMAXPROCS(0))
	activeRuns.Add(1)
	defer activeRuns.Add(-1)
	if len(x.runq) != len(m.nodes) {
		x.runq = make([]*Node, len(m.nodes))
	}
	m.free = freeLists.Get().(*freeList)
	for _, n := range m.nodes { // no program runs before loop
		n.reset()
		n.co.next, n.co.stop = iter.Pull(n.body(program))
		m.ready(n, false)
	}
	m.loop()
	if x.err == nil && x.panicked == "" {
		x.err = m.deadlock()
	}
	m.teardown()
	if x.panicked != "" {
		panic("simnet: " + x.panicked)
	}
	if x.err != nil {
		return RunStats{}, x.err
	}
	return m.collect(), nil
}

// body wraps program as node n's coroutine, converting a panic into the
// machine's recorded failure.
func (n *Node) body(program func(*Node)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		n.co.yield = yield
		defer func() {
			if r := recover(); r != nil {
				n.m.fail(n, r)
			}
		}()
		program(n)
	}
}

// loop resumes queued nodes until none is left or a failure halts the
// run.
func (m *Machine) loop() {
	x := &m.exec
	for x.err == nil && x.panicked == "" && x.count > 0 {
		n := m.pop()
		if _, ok := n.co.next(); !ok {
			n.co = coroutine{}
		}
	}
}

// ready queues n at the back of the run queue, or at the front: deliver
// wakes a receiver there, so it runs as soon as its sender parks and
// reads the message while the sender's writes are still in cache.
func (m *Machine) ready(n *Node, front bool) {
	x := &m.exec
	l := len(x.runq)
	if front {
		x.head = (x.head + l - 1) % l
		x.runq[x.head] = n
	} else {
		x.runq[(x.head+x.count)%l] = n
	}
	x.count++
}

// pop removes the node at the front of the run queue; under a test
// seed it first swaps a pseudo-randomly chosen queued node there.
func (m *Machine) pop() *Node {
	x := &m.exec
	if x.seed != 0 {
		x.seed = mix64(x.seed)
		i := (x.head + int(x.seed%uint64(x.count))) % len(x.runq)
		x.runq[i], x.runq[x.head] = x.runq[x.head], x.runq[i]
	}
	n := x.runq[x.head]
	x.runq[x.head] = nil
	x.head = (x.head + 1) % len(x.runq)
	x.count--
	return n
}

// park suspends the calling node program until the executor resumes
// it. It reports false when the run is being torn down instead; the
// caller must then raise an ErrAborted fault.
func (n *Node) park() bool { return n.co.yield(struct{}{}) }

// deliver appends msg to its destination's pending queue and, if the
// destination is parked on exactly this message's (source, tag), puts
// it at the front of the run queue.
func (m *Machine) deliver(msg *Msg) {
	d := m.nodes[msg.Dst]
	d.push(msg)
	if d.waitSrc == msg.Src && d.waitTag == msg.Tag {
		d.waitSrc = -1
		m.ready(d, true)
	}
}

// activeRuns counts the runs executing in the process, each on its own
// executor goroutine.
var activeRuns atomic.Int32

// handOff runs f, a product the kernel would pack, while its node waits
// at the back of the run queue (the executor waits for f if the node
// comes up first), and re-raises a panic from f. Queued when f starts,
// not when it ends, the node resumes in an order that does not depend
// on how long f takes or where it runs. f gets its own goroutine while
// a processor is free of executors, and runs inline otherwise, where a
// queued hand-off would only keep its node's data live (DESIGN.md §8.4).
func (n *Node) handOff(f func()) {
	if n.done == nil {
		n.done = make(chan any, 1)
	}
	run := func() {
		defer func() { n.done <- recover() }()
		f()
	}
	if activeRuns.Load() < n.m.exec.procs {
		go run()
	} else {
		run()
	}
	n.m.ready(n, false)
	resumed := n.park()
	if r := <-n.done; !resumed {
		panic(n.abortFault("compute", -1, -1, 0))
	} else if r != nil {
		panic(r)
	}
}

// fail records a node program's panic r, which stops the loop. The
// loop stops at the first typed fault or foreign panic, so only one can
// originate in a run; the ErrAborted faults the teardown raises later
// are its echoes, and never replace it.
func (m *Machine) fail(n *Node, r any) {
	x := &m.exec
	if fe, ok := r.(*FaultError); ok && x.err == nil {
		x.err = fe
	} else if !ok && x.panicked == "" {
		x.panicked = fmt.Sprintf("node %d: %v", n.ID, r)
	}
}

// deadlock reports the receives the unfinished nodes of a run that
// can make no progress are parked in, or nil when every program
// returned.
func (m *Machine) deadlock() error {
	var waits []string
	for _, n := range m.nodes {
		if n.co.next != nil {
			waits = append(waits, fmt.Sprintf("node %d (src=%d tag=%#x)", n.ID, n.waitSrc, n.waitTag))
		}
	}
	if waits == nil {
		return nil
	}
	return fmt.Errorf("simnet: %w: %s", ErrDeadlock, strings.Join(waits, ", "))
}

// teardown ends the run: it stops every unfinished coroutine, which
// raises ErrAborted in a parked program once its product, if any, is
// done (a never-started program runs nothing). Messages no receive took go
// back to the free list, and the list to the pool.
func (m *Machine) teardown() {
	x := &m.exec
	for _, n := range m.nodes {
		if n.co.stop != nil {
			n.co.stop()
			n.co = coroutine{}
		}
	}
	clear(x.runq) // after the stops: an aborting program may still send
	x.head, x.count = 0, 0
	for _, n := range m.nodes {
		n.waitSrc = -1
		n.dropPending()
	}
	m.unreleased, m.free.out = m.free.out, 0
	freeLists.Put(m.free)
	m.free = nil
}
