package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sync/atomic"

	"hypermm"
)

// genClients is the closed loop's size: two clients on two keep-alive
// connections, matched to the two cores the benchmark requires. Each
// client waits for its reply before sending again, as hmmd's callers
// (sweep scripts, cmd/stress, calibration refresh) do.
const genClients = 2

// inlineFullCheckEvery: an inline reply's product is decoded and
// compared against the serial product on the first and every 17th
// reply per client; the others get a length check, which keeps the
// generator's CPU share low enough to measure the daemon, not itself.
// The interval is odd so that in the traced pass, where serve-inline
// traces every other job, the costly checks fall on traced and
// untraced jobs alike.
const inlineFullCheckEvery = 17

// inlineTol bounds |c - serial product| for inline replies.
const inlineTol = 1e-9

// tally accumulates what correct jobs reported. The emu-large child
// prints one as JSON.
type tally struct {
	Elapsed    []float64 `json:"elapsed"`     // per kind: simulated time of its last correct job (0: none yet)
	ModelRatio []float64 `json:"model_ratio"` // per kind: simulated over predicted time of that job
	Jobs       int64     `json:"jobs"`        // correct jobs
	Msgs       int64     `json:"msgs"`
	Words      int64     `json:"words"`
	Startups   int64     `json:"startups"`
	Flops      int64     `json:"flops"`
	ReqBytes   int64     `json:"req_bytes"`
	RespBytes  int64     `json:"resp_bytes"`
}

func newTally(kinds int) tally {
	return tally{Elapsed: make([]float64, kinds), ModelRatio: make([]float64, kinds)}
}

// merge folds another client's tally into t.
func (t *tally) merge(o tally) {
	for i := range o.Elapsed {
		if o.Elapsed[i] != 0 {
			t.Elapsed[i], t.ModelRatio[i] = o.Elapsed[i], o.ModelRatio[i]
		}
	}
	t.Jobs += o.Jobs
	t.Msgs += o.Msgs
	t.Words += o.Words
	t.Startups += o.Startups
	t.Flops += o.Flops
	t.ReqBytes += o.ReqBytes
	t.RespBytes += o.RespBytes
}

// matmulReply is the part of server.MatmulResponse the benchmark reads.
type matmulReply struct {
	Algorithm string `json:"algorithm"`
	Simulated struct {
		Elapsed  float64 `json:"elapsed"`
		Msgs     int64   `json:"msgs"`
		Words    int64   `json:"words"`
		Startups int64   `json:"startups"`
		Flops    int64   `json:"flops"`
	} `json:"simulated"`
	Ratio float64   `json:"ratio"`
	C     []float64 `json:"c"`
}

// httpGen sends a plan's jobs to a daemon and checks every reply.
type httpGen struct {
	pl     *plan
	url    string
	client *http.Client
	perCli []tally        // one per client, so the hot path takes no lock
	bufs   []bytes.Buffer // reply buffers, one per client
	errs   atomic.Int64   // failures reported on stderr so far
}

func newHTTPGen(pl *plan, baseURL string) *httpGen {
	g := &httpGen{
		pl:  pl,
		url: baseURL + "/v1/matmul",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: genClients,
			MaxConnsPerHost:     genClients,
		}},
		perCli: make([]tally, genClients),
		bufs:   make([]bytes.Buffer, genClients),
	}
	for i := range g.perCli {
		g.perCli[i] = newTally(len(pl.kinds))
	}
	return g
}

func (g *httpGen) close() { g.client.CloseIdleConnections() }

// total merges the per-client tallies.
func (g *httpGen) total() tally {
	t := newTally(len(g.pl.kinds))
	for _, c := range g.perCli {
		t.merge(c)
	}
	return t
}

// job is the loop's jobFunc.
func (g *httpGen) job(client, seq int) (int, bool) {
	kind := g.pl.kindFor(client, genClients, seq)
	err := g.send(client, kind, seq%inlineFullCheckEvery == 0)
	if err != nil && g.errs.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "bench: %s %s: %v\n", g.pl.w.name, g.pl.kinds[kind].label, err)
	}
	return kind, err == nil
}

// newRequest builds the kind's POST /v1/matmul for a client to send.
func (k *kind) newRequest(url string) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(k.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if k.tenant != "" {
		req.Header.Set("X-Tenant", k.tenant)
	}
	return req, nil
}

// send posts one job and verifies the reply: status 200, the algorithm
// the cost model must choose, a simulated time bit-equal to the local
// run's, and for inline jobs the product itself.
func (g *httpGen) send(client, kind int, fullCheck bool) error {
	k := &g.pl.kinds[kind]
	req, err := k.newRequest(g.url)
	if err != nil {
		return err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	buf := &g.bufs[client]
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	body := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	var rep matmulReply
	gotC := -1 // elements of c, when only counted
	if k.inline && !fullCheck {
		var head []byte
		head, gotC = cutArrayMember(body, "c")
		err = json.Unmarshal(head, &rep)
	} else {
		err = json.Unmarshal(body, &rep)
	}
	if err != nil {
		return fmt.Errorf("bad reply JSON: %w", err)
	}
	if rep.Algorithm != k.alg.Name() {
		return fmt.Errorf("algorithm %q, want %q", rep.Algorithm, k.alg.Name())
	}
	if rep.Simulated.Elapsed != k.elapsed {
		return fmt.Errorf("simulated elapsed %v, want %v", rep.Simulated.Elapsed, k.elapsed)
	}
	if k.inline {
		if gotC < 0 {
			gotC = len(rep.C)
		}
		if gotC != k.n*k.n {
			return fmt.Errorf("product has %d elements, want %d", gotC, k.n*k.n)
		}
		if fullCheck {
			got := &hypermm.Matrix{Rows: k.n, Cols: k.n, Data: rep.C}
			if d := hypermm.MaxAbsDiff(got, k.wantC); d > inlineTol || math.IsNaN(d) {
				return fmt.Errorf("product differs from serial product by %g", d)
			}
		}
	}
	t := &g.perCli[client]
	t.Elapsed[kind], t.ModelRatio[kind] = rep.Simulated.Elapsed, rep.Ratio
	t.Jobs++
	t.Msgs += rep.Simulated.Msgs
	t.Words += rep.Simulated.Words
	t.Startups += rep.Simulated.Startups
	t.Flops += rep.Simulated.Flops
	t.ReqBytes += int64(len(k.body))
	t.RespBytes += int64(len(body))
	return nil
}

// cutArrayMember removes the member `"name":[...]` holding a flat array
// of numbers from a JSON object and returns the rest (still valid JSON)
// with the number of elements the array held, or the input and -1 when
// there is no such member. It lets the generator read the small fields
// of a large reply without decoding ~37k floats on every job.
func cutArrayMember(obj []byte, name string) (rest []byte, elems int) {
	key := []byte(`"` + name + `":[`)
	i := bytes.Index(obj, key)
	if i < 0 {
		return obj, -1
	}
	open := i + len(key)
	n := bytes.IndexByte(obj[open:], ']')
	if n < 0 {
		return obj, -1
	}
	end := open + n + 1 // just past ']'
	arr := bytes.TrimSpace(obj[open : end-1])
	if len(arr) > 0 {
		elems = bytes.Count(arr, []byte{','}) + 1
	}
	// Drop one adjacent comma: the one before the member, or, when the
	// member comes first, the one after it.
	switch {
	case i > 0 && obj[i-1] == ',':
		i--
	case end < len(obj) && obj[end] == ',':
		end++
	}
	rest = append(append(make([]byte, 0, len(obj)-(end-i)), obj[:i]...), obj[end:]...)
	return rest, elems
}
