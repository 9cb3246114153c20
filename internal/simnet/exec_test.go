package simnet

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"hypermm/internal/matrix"
)

// within fails t if run has not returned after a few seconds: a
// regression to a hanging run fails the test instead of stalling the
// suite.
func within(t *testing.T, run func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		run()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return")
	}
}

// TestDeadlockReported: a receive of a message nobody sends, and a
// pair of nodes each waiting on the other, end the run with a typed
// ErrDeadlock that names every waiting receive, and the machine runs
// clean afterwards.
func TestDeadlockReported(t *testing.T) {
	m := mach(4, OnePort, 1, 1, 0)
	var err error
	within(t, func() {
		_, err = m.RunErr(func(n *Node) {
			switch n.ID {
			case 0:
				n.Recv(1, 7)
			case 1:
				n.Recv(0, 7)
			case 2:
				n.Send(3, 1, []float64{1}) // never received
				n.Recv(1, 0x63)
			}
		})
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("got %v, want ErrDeadlock", err)
	}
	const want = "simnet: deadlock: every unfinished node waits on a receive: node 0 (src=1 tag=0x7), node 1 (src=0 tag=0x7), node 2 (src=1 tag=0x63)"
	if err.Error() != want {
		t.Errorf("error %q\nwant  %q", err, want)
	}
	if m.unreleased != 0 {
		t.Errorf("%d payload buffers leaked by the deadlocked run", m.unreleased)
	}
	ring := func(n *Node) {
		n.Send((n.ID+1)%n.P(), 1, []float64{float64(n.ID)})
		n.Recv((n.ID+n.P()-1)%n.P(), 1)
	}
	if rs, err := m.RunErr(ring); err != nil || !reflect.DeepEqual(rs, mach(4, OnePort, 1, 1, 0).Run(ring)) {
		t.Fatalf("machine not reusable after a deadlock: %v", err)
	}
}

// TestRunOrderSeedPermutes: the test-only seeded run queue really does
// start node programs in another order than FIFO, and the simulated
// result does not move.
func TestRunOrderSeedPermutes(t *testing.T) {
	prog := func(order *[]int) func(n *Node) {
		return func(n *Node) {
			*order = append(*order, n.ID)
			for d := 0; d < n.m.Cube.Dim; d++ {
				n.Send(n.ID^1<<d, uint64(d), []float64{float64(n.ID)})
				n.Recv(n.ID^1<<d, uint64(d))
			}
		}
	}
	var fifo, seeded []int
	m := mach(16, MultiPort, 3, 1, 0)
	want := m.Run(prog(&fifo))
	if !slices.IsSorted(fifo) {
		t.Fatalf("FIFO order started programs as %v", fifo)
	}
	SetRunOrderSeed(m, 1)
	if got := m.Run(prog(&seeded)); !reflect.DeepEqual(got, want) {
		t.Errorf("seeded order changed the run:\n got %+v\nwant %+v", got, want)
	}
	if slices.IsSorted(seeded) {
		t.Errorf("seeded order started programs in FIFO order %v", seeded)
	}
}

// TestHandOffMatchesInline: products the kernel would pack run on
// their own goroutines; the executor keeps running other nodes, and
// products and charges are those of MulAdd inline.
func TestHandOffMatchesInline(t *testing.T) {
	a, b := matrix.Random(64, 64, 1), matrix.Random(64, 64, 2)
	if !matrix.Packs(64, 64, 64) {
		t.Fatal("a 64^3 product is below the kernel's packing threshold")
	}
	want := matrix.Mul(a, b)
	m := mach(4, OnePort, 0, 0, 1)
	out := make([]*matrix.Dense, 4)
	rs := m.Run(func(n *Node) {
		if n.ID%2 == 0 {
			out[n.ID] = n.Mul(a, b)
		} else {
			cs := n.MulSumCols(4, []*matrix.Dense{a}, []*matrix.Dense{b})
			out[n.ID] = matrix.New(64, 64)
			for l, c := range cs {
				for i := 0; i < 64; i++ {
					copy(out[n.ID].Data[i*64+l*16:i*64+(l+1)*16], c.Data[i*16:(i+1)*16])
				}
			}
		}
	})
	for id, c := range out {
		if !matrix.Equal(c, want) {
			t.Errorf("node %d: product differs from MulAdd's", id)
		}
	}
	if flops := matrix.MulFlops(64, 64, 64); rs.TotalFlops != 4*flops || rs.Elapsed != float64(flops) {
		t.Errorf("charged %d flops, elapsed %g; want %d, %d", rs.TotalFlops, rs.Elapsed, 4*flops, flops)
	}
}

// TestHandOffPanicAndFaultTeardown: a panic inside a handed-off product
// reaches the caller like any node panic, and a fault raised while
// other nodes' products are in flight waits them out, aborts their
// nodes and leaves no goroutine behind.
func TestHandOffPanicAndFaultTeardown(t *testing.T) {
	base := runtime.NumGoroutine()
	big, bad := matrix.Random(64, 64, 1), matrix.Random(65, 64, 2)
	m := mach(4, OnePort, 0, 0, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a panic inside a handed-off product was swallowed")
			}
		}()
		m.Run(func(n *Node) {
			if n.ID == 1 {
				n.MulAdd(matrix.New(64, 64), bad, big) // inner dimensions differ
			}
		})
	}()
	_, err := m.RunErr(func(n *Node) {
		if n.ID == 3 {
			panic(&FaultError{Node: 3, Op: "send", Src: 3, Dst: 0, Err: ErrLinkDown})
		}
		n.Mul(big, big)
		n.Recv(3, 1)
	})
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("got %v, want the originating ErrLinkDown", err)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the runs, %d before", n, base)
	}
}

// TestHandOffFaultRepeats: the fault a run reports does not depend on
// how long handed-off products take or where they run. Every node
// hands off a product, node 0 the largest, so it finishes last when
// the products run in parallel; each node then passes the deadline at
// its next send. Runs alone, runs two at a time (which moves products
// inline) and runs on one processor all report node 0, the first node
// the run queue resumes.
func TestHandOffFaultRepeats(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	prog := func(n *Node) {
		a := matrix.Random(64*(4-n.ID), 64, 1)
		n.Mul(a, a.Transpose())
		n.Send((n.ID+1)%4, 1, []float64{1})
		n.Recv((n.ID+3)%4, 1)
	}
	const want = "simnet: node 0 deadline: deadline exceeded"
	check := func(m *Machine) {
		if _, err := m.RunErr(prog); err == nil || err.Error() != want {
			t.Errorf("got %v, want %s", err, want)
		}
	}
	m := NewMachine(Config{P: 4, Tc: 1, Deadline: 1})
	for range 20 {
		check(m)
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := NewMachine(Config{P: 4, Tc: 1, Deadline: 1})
			for range 10 {
				check(m)
			}
		}()
	}
	wg.Wait()
	runtime.GOMAXPROCS(1)
	check(m)
}
