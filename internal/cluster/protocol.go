// Package cluster shards matmul jobs across multiple hmmd worker
// processes: a coordinator accepts TCP connections from workers, routes
// each job to the least-loaded healthy worker, and fails jobs over when
// a worker dies mid-flight. Workers execute jobs with the unmodified
// local machinery (scheduler, a fresh machine per job), so every result
// a worker returns is byte-identical to a local hypermm.Run — the
// clusterequiv conformance oracle pins exactly that.
//
// The wire protocol is a small length-prefixed RPC framing. One frame:
//
//	offset size
//	0      4    big-endian uint32: length of everything that follows
//	4      1    message type (msgHello, msgWelcome, msgJob, ...)
//	5      4    big-endian uint32: JSON header length hl
//	9      hl   JSON header (per-type struct below)
//	9+hl   ...  binary tail: matrix words as little-endian float64
//
// A connection begins with a handshake — the worker sends Hello
// (protocol version, name, capabilities, size limits) and the
// coordinator answers Welcome (accept or refuse with a reason). After
// that the coordinator multiplexes concurrent Job frames down the
// connection, each carrying a fresh ID; the worker answers with Result
// frames in completion order. Ping/Pong frames double as health probes
// and liveness signals; Goodbye starts a graceful drain from either
// side (no new jobs, in-flight ones finish).
package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"hypermm"
	"hypermm/internal/obs"
)

// ProtocolVersion is bumped on any incompatible frame or header change;
// the coordinator refuses workers speaking a different version.
const ProtocolVersion = 1

// CapMatmul is the one capability this protocol revision requires: the
// worker can execute a square matmul job end to end (operands in,
// product + counters out), fault plans and deadlines included.
const CapMatmul = "matmul/v1"

// DefaultMaxFrame bounds one frame (256 MiB fits two 1024x1024 float64
// operands with room to spare); both sides reject bigger frames rather
// than buffer them.
const DefaultMaxFrame = 256 << 20

// Message types.
const (
	msgHello   byte = 1 // worker -> coordinator: registration
	msgWelcome byte = 2 // coordinator -> worker: registration verdict
	msgJob     byte = 3 // coordinator -> worker: one multiplication
	msgResult  byte = 4 // worker -> coordinator: job outcome
	msgPing    byte = 5 // coordinator -> worker: health probe
	msgPong    byte = 6 // worker -> coordinator: probe answer + load
	msgGoodbye byte = 7 // either direction: graceful drain
)

// hello is the worker's registration header.
type hello struct {
	Version      int      `json:"version"`
	Name         string   `json:"name"`
	Capabilities []string `json:"capabilities"`
	MaxN         int      `json:"max_n,omitempty"` // largest accepted matrix size (0: unbounded)
	MaxP         int      `json:"max_p,omitempty"` // largest accepted machine size (0: unbounded)
}

// welcome is the coordinator's registration verdict.
type welcome struct {
	Version  int    `json:"version"`
	OK       bool   `json:"ok"`
	Reason   string `json:"reason,omitempty"`
	WorkerID uint64 `json:"worker_id,omitempty"`
}

// ping and pong carry a sequence number; pong adds the worker's
// in-flight job count as load telemetry.
type ping struct {
	Seq uint64 `json:"seq"`
}

type pong struct {
	Seq      uint64 `json:"seq"`
	Inflight int    `json:"inflight"`
}

// jobSpec is the Job frame header; the frame tail carries the two n x n
// operands back to back (A then B).
type jobSpec struct {
	ID        uint64     `json:"id"`
	Algorithm string     `json:"algorithm"`
	N         int        `json:"n"`
	P         int        `json:"p"`
	Ports     int        `json:"ports"` // 0 one-port, 1 multi-port
	Ts        float64    `json:"ts"`
	Tw        float64    `json:"tw"`
	Tc        float64    `json:"tc"`
	Deadline  float64    `json:"deadline,omitempty"` // simulated-time budget
	WallMs    int64      `json:"wall_ms,omitempty"`  // remaining wall-clock budget
	Fault     *wireFault `json:"fault,omitempty"`

	// QoS attribution: which tenant admitted the job, its class name,
	// and the numeric priority (0 most important). Optional — a plain
	// Submit leaves them zero; workers without QoS configured treat the
	// job as pre-admitted default-tenant work either way.
	Tenant   string `json:"tenant,omitempty"`
	Class    string `json:"class,omitempty"`
	Priority int    `json:"priority,omitempty"`

	// Trace context: the coordinator-side trace this job belongs to and
	// the dispatch span to parent worker spans under. Optional; the
	// worker validates both and silently ignores a malformed or
	// oversized pair (observability is never allowed to fail a job).
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// spanContext validates the spec's propagated trace context. Malformed
// or oversized IDs — a hostile or buggy coordinator — yield ok=false
// and the job simply runs untraced; they are never a job error.
func (s *jobSpec) spanContext() (obs.SpanContext, bool) {
	if s.TraceID == "" && s.SpanID == "" {
		return obs.SpanContext{}, false
	}
	return obs.ParseSpanContext(s.TraceID, s.SpanID)
}

// jobReply is the Result frame header; on success the tail carries the
// n x n product.
type jobReply struct {
	ID      uint64            `json:"id"`
	Err     string            `json:"err,omitempty"`
	ErrKind string            `json:"err_kind,omitempty"`
	Elapsed float64           `json:"elapsed,omitempty"`
	Comm    hypermm.CommStats `json:"comm,omitempty"`
	Rows    int               `json:"rows,omitempty"`
	Cols    int               `json:"cols,omitempty"`

	// Spans carries the worker-side spans of a propagated trace back to
	// the coordinator, which ingests them into its ring so one trace ID
	// resolves to the full cross-process timeline.
	Spans []obs.SpanData `json:"spans,omitempty"`
}

// Remote error kinds, so the coordinator can rebuild typed errors on
// its side of the wire.
const (
	kindLinkDown = "link_down" // hypermm.ErrLinkDown
	kindDeadline = "deadline"  // hypermm.ErrDeadline
	kindBusy     = "busy"      // worker saturated/draining; retry elsewhere
	kindCanceled = "canceled"  // wall-clock budget exhausted on the worker
	kindBadJob   = "bad_job"   // malformed spec; not retryable
	kindRun      = "run"       // any other execution failure
)

// wireFault mirrors hypermm.FaultPlan with JSON-encodable windows:
// hypermm.Forever (+Inf) becomes the farFuture sentinel, which no
// bounded simulated clock approaches, so window membership tests —
// the only thing To feeds — are unchanged.
type wireFault struct {
	Seed       uint64       `json:"seed"`
	Drop       float64      `json:"drop,omitempty"`
	Dup        float64      `json:"dup,omitempty"`
	DelayProb  float64      `json:"delay_prob,omitempty"`
	DelayTime  float64      `json:"delay_time,omitempty"`
	Down       [][4]float64 `json:"down,omitempty"` // [src, dst, from, to]
	MaxRetries int          `json:"max_retries,omitempty"`
	AckTimeout float64      `json:"ack_timeout,omitempty"`
	Backoff    float64      `json:"backoff,omitempty"`
}

const farFuture = 1e18

func toWireFault(fp *hypermm.FaultPlan) *wireFault {
	if fp == nil {
		return nil
	}
	wf := &wireFault{
		Seed: fp.Seed, Drop: fp.Drop, Dup: fp.Dup,
		DelayProb: fp.DelayProb, DelayTime: fp.DelayTime,
		MaxRetries: fp.MaxRetries, AckTimeout: fp.AckTimeout, Backoff: fp.Backoff,
	}
	for _, w := range fp.Down {
		to := w.To
		if math.IsInf(to, 1) {
			to = farFuture
		}
		wf.Down = append(wf.Down, [4]float64{float64(w.Src), float64(w.Dst), w.From, to})
	}
	return wf
}

func (wf *wireFault) plan() *hypermm.FaultPlan {
	if wf == nil {
		return nil
	}
	fp := &hypermm.FaultPlan{
		Seed: wf.Seed, Drop: wf.Drop, Dup: wf.Dup,
		DelayProb: wf.DelayProb, DelayTime: wf.DelayTime,
		MaxRetries: wf.MaxRetries, AckTimeout: wf.AckTimeout, Backoff: wf.Backoff,
	}
	for _, w := range wf.Down {
		fp.Down = append(fp.Down, hypermm.Window{
			Src: int(w[0]), Dst: int(w[1]), From: w[2], To: w[3],
		})
	}
	return fp
}

// writeFrame assembles one frame in a single buffer and writes it with
// one Write call, so concurrent senders only need to serialize the
// call itself.
func writeFrame(w io.Writer, mt byte, header any, tail []byte) error {
	hdr, err := json.Marshal(header)
	if err != nil {
		return fmt.Errorf("cluster: encoding %T: %w", header, err)
	}
	n := 1 + 4 + len(hdr) + len(tail)
	buf := make([]byte, 4+n)
	binary.BigEndian.PutUint32(buf[0:], uint32(n))
	buf[4] = mt
	binary.BigEndian.PutUint32(buf[5:], uint32(len(hdr)))
	copy(buf[9:], hdr)
	copy(buf[9+len(hdr):], tail)
	_, err = w.Write(buf)
	return err
}

// readFrame reads one frame, rejecting anything longer than maxFrame.
// The returned header and tail slices are freshly allocated.
func readFrame(r *bufio.Reader, maxFrame int) (mt byte, header, tail []byte, err error) {
	var lenBuf [4]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, nil, nil, err
	}
	n := int(binary.BigEndian.Uint32(lenBuf[:]))
	if n < 5 {
		return 0, nil, nil, fmt.Errorf("cluster: short frame (%d bytes)", n)
	}
	if n > maxFrame {
		return 0, nil, nil, fmt.Errorf("cluster: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	body := make([]byte, n)
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, nil, nil, err
	}
	mt = body[0]
	hl := int(binary.BigEndian.Uint32(body[1:5]))
	if 5+hl > n {
		return 0, nil, nil, fmt.Errorf("cluster: header length %d overruns %d-byte frame", hl, n)
	}
	return mt, body[5 : 5+hl], body[5+hl:], nil
}

// appendMatrix appends m's words to dst in row-major little-endian
// float64 encoding.
func appendMatrix(dst []byte, m *hypermm.Matrix) []byte {
	for _, v := range m.Data {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// takeMatrix decodes a rows x cols matrix from the front of tail and
// returns the remainder.
func takeMatrix(tail []byte, rows, cols int) (*hypermm.Matrix, []byte, error) {
	need := rows * cols * 8
	if rows < 1 || cols < 1 || len(tail) < need {
		return nil, nil, fmt.Errorf("cluster: matrix tail has %d bytes, need %d for %dx%d", len(tail), need, rows, cols)
	}
	m := hypermm.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(tail[i*8:]))
	}
	return m, tail[need:], nil
}
