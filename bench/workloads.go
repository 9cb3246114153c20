package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"hypermm"
)

// The machine parameters every workload uses: the paper's headline set
// (t_s = 150, t_w = 3) and the daemon's request defaults.
const (
	paramTs = 150.0
	paramTw = 3.0
	paramTc = 0.5
)

// topology is what the benchmark starts as the system under test.
type topology int

const (
	standalone topology = iota // one hmmd
	clustered                  // hmmd coordinator + two hmmd workers
	emulator                   // no daemon: a child process calling hypermm directly
)

// kind is one distinct job of a workload: a shape plus how it is asked
// for. The fields below "expectations" are computed locally during
// set-up and are what every output is checked against.
type kind struct {
	label  string
	n, p   int
	algReq string // "auto", or an algorithm's command-line name
	ports  hypermm.PortModel
	seed   int64  // operand seed: A = RandomMatrix(seed), B = RandomMatrix(seed+1)
	tenant string // X-Tenant header (cluster-small)
	inline bool   // operands travel in the request and the product in the reply
	warm   bool   // emu-large: run on a pooled machine instead of a fresh one

	// expectations
	alg     hypermm.Algorithm
	cfg     hypermm.Config
	a, b    *hypermm.Matrix
	elapsed float64           // simulated time a correct run reports, bit for bit
	comm    hypermm.CommStats // exact counters of that run
	wantC   *hypermm.Matrix   // serial product (inline kinds only)
	body    []byte            // pre-encoded POST /v1/matmul body (daemon workloads)
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	why   string
	topo  topology
	kinds func() []kind
}

// workloads lists every workload in the order the all-workloads run
// uses. The why strings are repeated in BENCHMARK.json.
var workloads = []workload{
	{
		name: "serve-small", topo: standalone,
		why: "tiny seeded jobs: simnet wake-ups, pool, handler and net/http are the whole request; kernel and JSON are negligible",
		kinds: func() []kind {
			var ks []kind
			for _, p := range []int{8, 64} {
				for _, n := range []int{16, 32, 48} {
					ks = append(ks, kind{n: n, p: p, algReq: "auto"})
				}
			}
			return ks
		},
	},
	{
		name: "serve-compute", topo: standalone,
		why: "large seeded jobs: the internal/matrix GEMM kernel does most of the work, so a kernel change shows here and a handler change does not",
		kinds: func() []kind {
			return []kind{
				{n: 512, p: 8, algReq: "auto"},
				{n: 384, p: 8, algReq: "auto"},
				{n: 448, p: 64, algReq: "auto"},
			}
		},
	},
	{
		name: "serve-inline", topo: standalone,
		why: "inline operands and returned product at n=192: bulk JSON decode and encode dominate, the opposite codec use from serve-small",
		kinds: func() []kind {
			return []kind{{n: 192, p: 8, algReq: "auto", inline: true}}
		},
	},
	{
		name: "cluster-small", topo: clustered,
		why: "coordinator plus two workers under a two-tenant QoS policy: frame codec, loopback TCP, routing and admission dominate",
		kinds: func() []kind {
			var ks []kind
			for _, tenant := range []string{"ta", "tb"} {
				ks = append(ks,
					kind{n: 64, p: 16, algReq: "cannon", tenant: tenant},
					kind{n: 48, p: 64, algReq: "auto", tenant: tenant})
			}
			return ks
		},
	},
	{
		name: "emu-large", topo: emulator,
		why: "library calls at p=512..1024, cold and warm, one- and multi-port: per-message transport and goroutine scheduling with no HTTP, codec or cluster",
		kinds: func() []kind {
			var ks []kind
			for _, warm := range []bool{false, true} {
				ks = append(ks,
					kind{n: 128, p: 512, algReq: "3dall", warm: warm},
					kind{n: 128, p: 512, algReq: "3dall", ports: hypermm.MultiPort, warm: warm},
					kind{n: 128, p: 1024, algReq: "cannon", warm: warm},
					kind{n: 64, p: 512, algReq: "dns", warm: warm})
			}
			return ks
		},
	},
}

// clients is the size of the workload's closed loop: the two HTTP
// clients, or the one caller of the emulator library.
func (w workload) clients() int {
	if w.topo == emulator {
		return 1
	}
	return genClients
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// plan is a workload made concrete for one seed: its kinds with
// operand seeds and expectations filled in, and the order jobs are
// issued in.
type plan struct {
	w     workload
	seed  int64
	kinds []kind
	order []int // round-robin schedule over kinds, a seeded permutation
}

// newPlan derives the inputs of a workload from the seed: the same
// seed gives the same operand seeds, request bodies and job order.
func newPlan(w workload, seed int64) (*plan, error) {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))
	pl := &plan{w: w, seed: seed, kinds: w.kinds()}
	for i := range pl.kinds {
		k := &pl.kinds[i]
		k.seed = 1 + rng.Int63n(1<<30)
		if err := k.prepare(w.topo); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	pl.order = rng.Perm(len(pl.kinds))
	return pl, nil
}

// kindFor is the job a client sends as its seq-th: clients walk the
// same schedule from evenly spaced starting points.
func (pl *plan) kindFor(client, clients, seq int) int {
	return pl.order[(client*len(pl.order)/clients+seq)%len(pl.order)]
}

func (pl *plan) label(kind int) string { return pl.kinds[kind].label }

// sameShape reports whether two kinds differ in no more than tenant or
// cold/warm.
func (pl *plan) sameShape(i, j int) bool {
	a, b := pl.kinds[i], pl.kinds[j]
	return a.algReq == b.algReq && a.n == b.n && a.p == b.p && a.ports == b.ports
}

// distinctShapes returns the index of the first kind of every distinct
// shape: the shapes sim_time sums over and the ladder replays.
func (pl *plan) distinctShapes() []int {
	var out []int
	for i := range pl.kinds {
		dup := false
		for _, j := range out {
			dup = dup || pl.sameShape(i, j)
		}
		if !dup {
			out = append(out, i)
		}
	}
	return out
}

// matmulBody mirrors the fields of server.MatmulRequest the benchmark
// sends.
type matmulBody struct {
	N         int       `json:"n"`
	P         int       `json:"p"`
	Ports     string    `json:"ports,omitempty"`
	Algorithm string    `json:"algorithm"`
	Seed      int64     `json:"seed,omitempty"`
	A         []float64 `json:"a,omitempty"`
	B         []float64 `json:"b,omitempty"`
	ReturnC   bool      `json:"return_matrix,omitempty"`
}

// prepare resolves the algorithm the way the daemon's planner must
// (hypermm.BestAlgorithm for "auto"), builds the operands and, for the
// daemon workloads, computes the expected simulated time with a local
// hypermm.Run and encodes the request. The emu-large child computes
// its own expectations from its first verified run, so the parent
// skips the run there.
func (k *kind) prepare(topo topology) error {
	k.cfg = hypermm.Config{P: k.p, Ports: k.ports, Ts: paramTs, Tw: paramTw, Tc: paramTc}
	if k.algReq == "auto" {
		alg, ok := hypermm.BestAlgorithm(float64(k.n), float64(k.p), paramTs, paramTw, k.ports)
		if !ok {
			return fmt.Errorf("no applicable algorithm at n=%d p=%d", k.n, k.p)
		}
		k.alg = alg
	} else {
		alg, err := hypermm.ParseAlgorithm(k.algReq)
		if err != nil {
			return err
		}
		k.alg = alg
	}
	k.label = fmt.Sprintf("%s-n%d-p%d", k.alg.Name(), k.n, k.p)
	if k.ports == hypermm.MultiPort {
		k.label += "-multi"
	}
	if k.tenant != "" {
		k.label += "-" + k.tenant
	}
	k.a = hypermm.RandomMatrix(k.n, k.n, k.seed)
	k.b = hypermm.RandomMatrix(k.n, k.n, k.seed+1)
	if topo == emulator {
		if k.warm {
			k.label += "-warm"
		} else {
			k.label += "-cold"
		}
		return nil
	}
	res, err := hypermm.Run(k.alg, k.cfg, k.a, k.b)
	if err != nil {
		return fmt.Errorf("local run of %s: %w", k.label, err)
	}
	k.elapsed, k.comm = res.Elapsed, res.Comm
	req := matmulBody{N: k.n, P: k.p, Algorithm: k.algReq, Seed: k.seed}
	if k.inline {
		k.wantC = hypermm.MatMul(k.a, k.b)
		req.Seed, req.A, req.B, req.ReturnC = 0, k.a.Data, k.b.Data, true
	}
	k.body, err = json.Marshal(req)
	return err
}
