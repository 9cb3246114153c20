package hypermm

import (
	"container/list"
	"sync"

	"hypermm/internal/simnet"
)

// MachinePool keeps warm simulated machines for reuse across runs. The
// paper's algorithms assume a standing hypercube; cold Run pays for
// building one — P nodes with their pending-message queues and port
// arrays — on every call. A pooled machine keeps all of that between
// runs and holds no goroutines: every run, warm or cold, starts one
// coroutine per node, and they end with it.
// A pool checks machines out by their identity (P, ports, t_s, t_w,
// t_c), resets them between runs (the reset is byte-identical to a
// fresh machine: same simulated clocks, counters and results — pinned
// by the poolequiv conformance oracle) and evicts least-recently-used
// idle machines beyond the capacity bound.
//
// Per-run configuration that does not shape the machine — fault plans
// and deadlines — is applied at checkout and stripped at return, so one
// warm machine serves faulted and clean runs alike.
//
// A MachinePool is safe for concurrent use. Runs on distinct checked-out
// machines proceed in parallel; a machine is never shared by two runs.
type MachinePool struct {
	mu        sync.Mutex
	cap       int
	idle      map[poolKey][]*list.Element // per-key idle machines, LIFO (warmest last)
	order     *list.List                  // global LRU of idle machines; front = most recent
	hits      int64
	misses    int64
	evictions int64
	closed    bool
}

// poolKey is the machine-shaping part of a Config: two configs with the
// same key can reuse the same warm machine.
type poolKey struct {
	p          int
	ports      PortModel
	ts, tw, tc float64
}

// poolEntry is one idle machine parked in the LRU.
type poolEntry struct {
	key poolKey
	m   *simnet.Machine
}

// NewMachinePool returns a pool holding at most capacity idle machines
// (capacity < 1 is treated as 1). Checked-out machines do not count
// against the bound.
func NewMachinePool(capacity int) *MachinePool {
	if capacity < 1 {
		capacity = 1
	}
	return &MachinePool{
		cap:   capacity,
		idle:  make(map[poolKey][]*list.Element),
		order: list.New(),
	}
}

// PoolStats is a snapshot of a pool's counters.
type PoolStats struct {
	Hits      int64 // checkouts served by a warm machine
	Misses    int64 // checkouts that had to build a machine
	Evictions int64 // idle machines closed to respect the capacity bound
	Size      int   // idle machines currently parked
}

// Stats returns the pool's counters.
func (p *MachinePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Hits: p.hits, Misses: p.misses, Evictions: p.evictions, Size: p.order.Len()}
}

// RunOn is Run on a pooled machine: it checks a warm machine out (or
// builds one on a miss), runs the multiplication, and returns the
// machine to the pool. Results — product bytes, simulated Elapsed,
// CommStats — are identical to Run's.
func (p *MachinePool) RunOn(alg Algorithm, cfg Config, A, B *Matrix) (*Result, error) {
	run, err := alg.runner()
	if err != nil {
		return nil, err
	}
	m, err := p.checkout(cfg)
	if err != nil {
		return nil, err
	}
	defer p.checkin(m)
	return runOn(m, run, A, B)
}

// checkout returns a machine matching cfg — warm when one is parked,
// freshly built otherwise — with cfg's per-run fields (faults, deadline)
// applied. The caller must hand the machine back with checkin.
func (p *MachinePool) checkout(cfg Config) (*simnet.Machine, error) {
	sc, err := cfg.machine()
	if err != nil {
		return nil, err
	}
	key := poolKey{p: cfg.P, ports: cfg.Ports, ts: cfg.Ts, tw: cfg.Tw, tc: cfg.Tc}
	p.mu.Lock()
	var m *simnet.Machine
	if q := p.idle[key]; len(q) > 0 {
		el := q[len(q)-1] // warmest
		p.idle[key] = q[:len(q)-1]
		p.order.Remove(el)
		m = el.Value.(poolEntry).m
		p.hits++
	} else {
		p.misses++
	}
	p.mu.Unlock()
	if m == nil {
		m = simnet.NewMachine(sc)
	}
	m.Cfg.Faults = sc.Faults
	m.Cfg.Deadline = sc.Deadline
	return m, nil
}

// checkin parks the machine for reuse, stripping its per-run
// configuration, and evicts the least-recently-used idle machine when
// the capacity bound is exceeded. A machine returned to a closed pool
// is dropped instead of parked.
func (p *MachinePool) checkin(m *simnet.Machine) {
	m.Cfg.Faults = nil
	m.Cfg.Deadline = 0
	key := poolKey{p: m.Cfg.P, ports: PortModel(m.Cfg.Ports), ts: m.Cfg.Ts, tw: m.Cfg.Tw, tc: m.Cfg.Tc}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	el := p.order.PushFront(poolEntry{key: key, m: m})
	p.idle[key] = append(p.idle[key], el)
	if p.order.Len() > p.cap {
		back := p.order.Back()
		p.order.Remove(back)
		ent := back.Value.(poolEntry)
		q := p.idle[ent.key]
		for i, e := range q {
			if e == back {
				copy(q[i:], q[i+1:])
				p.idle[ent.key] = q[:len(q)-1]
				break
			}
		}
		p.evictions++
	}
	p.mu.Unlock()
}

// Close shuts the pool: every idle machine is dropped, and further
// checkouts build disposable machines (returned machines are dropped,
// not parked). Runs in flight on checked-out machines are unaffected.
// Idempotent.
func (p *MachinePool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.order.Init()
	p.idle = make(map[poolKey][]*list.Element)
}
