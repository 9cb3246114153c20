package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"hypermm"
)

// matmulReply is a serve-inline reply: the n x n product of the
// operands inlineBody sends, under the plan the daemon picks for it.
func matmulReply(tb testing.TB, n, p int) *MatmulResponse {
	tb.Helper()
	plan, err := NewPlanner(4).Plan(PlanRequest{N: float64(n), P: float64(p), Ts: 150, Tw: 3, Tc: 0.5})
	if err != nil {
		tb.Fatal(err)
	}
	C := hypermm.MatMul(hypermm.RandomMatrix(n, n, 7), hypermm.RandomMatrix(n, n, 8))
	return &MatmulResponse{
		Algorithm: plan.AlgorithmName, Auto: plan.Auto, N: n, P: p, Ports: "one-port",
		Predicted: plan, Simulated: SimulatedStats{Elapsed: 123456.5, Msgs: 96, Words: 73728},
		Ratio: 1.0000000000000002, WallMs: 1.234, C: C.Data,
	}
}

// checkWriteMatmul holds writeMatmul's bytes to json.Marshal(resp)
// plus the newline writeJSON adds.
func checkWriteMatmul(t *testing.T, resp *MatmulResponse) {
	t.Helper()
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	writeMatmul(rec, resp)
	if got := rec.Body.Bytes(); rec.Code != http.StatusOK || !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("writeMatmul wrote status %d\n%q\njson.Marshal\n%q", rec.Code, got, want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
}

// encodeEdges are the floats where encoding/json's format changes, or
// that stretch its digits: zero of both signs, both sides of the 1e-6
// and 1e21 switches to exponent form, subnormals and the extremes.
var encodeEdges = []float64{
	0, math.Copysign(0, -1), 9.999999999999999e-7, 1e-6, 1e-7, 1e21, math.Nextafter(1e21, 0),
	5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	1e-10, 1.2345678901234567e-300, -0.0000012345678901234567, 123456789012345680000, 0.1, 1, -1.5,
}

// FuzzWriteMatmul holds writeMatmul to json.Marshal on random finite
// products (8 bytes a value; the non-finite ones are 422 before any
// encoding) and Gantt and trace strings, HTML characters included.
func FuzzWriteMatmul(f *testing.F) {
	var edges []byte
	for _, x := range encodeEdges {
		edges = binary.LittleEndian.AppendUint64(edges, math.Float64bits(x))
	}
	f.Add(edges, "", "", false)
	f.Add(edges[:8], `<a href="x">&amp;</a>`, "trace \"sum\"\n\t <>&", true)
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\xf0?"), "gantt", "", false)
	f.Fuzz(func(t *testing.T, cbits []byte, gantt, sum string, verified bool) {
		resp := MatmulResponse{Algorithm: "cannon", N: 2, P: 4, Ports: "one-port", Gantt: gantt, TraceSum: sum}
		if verified {
			resp.Verified = &verified
		}
		for ; len(cbits) >= 8; cbits = cbits[8:] {
			if x := math.Float64frombits(binary.LittleEndian.Uint64(cbits)); !math.IsInf(x, 0) && !math.IsNaN(x) {
				resp.C = append(resp.C, x)
			}
		}
		checkWriteMatmul(t, &resp)
	})
}

func TestWriteMatmulInlineReply(t *testing.T) {
	resp := matmulReply(t, 192, 8)
	checkWriteMatmul(t, resp)
	resp.Gantt, resp.TraceSum = "node 0 |###|\n<&>", `"sum"`
	checkWriteMatmul(t, resp)
	resp.C = nil
	checkWriteMatmul(t, resp)
}

// TestMarshalMatmulAllocs pins the n = 192 reply to one buffer of
// about its size, sized from len(C) for the longest float and never
// grown, besides the head's small json.Marshal (json.Marshal makes
// ~2.7 MB of allocations for the same reply). The count bound is loose
// because a GC may empty the encoder's pool, which costs json.Marshal
// a few small allocations; one per element would make thousands.
func TestMarshalMatmulAllocs(t *testing.T) {
	resp := matmulReply(t, 192, 8)
	out, err := marshalMatmul(resp)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() { _, _ = marshalMatmul(resp) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	for range runs {
		_, _ = marshalMatmul(resp)
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(out))
	t.Logf("%d-byte reply: %.0f allocations, %.2fx its size", len(out), allocs, perRun)
	if allocs > 16 || perRun > 1.5 {
		t.Errorf("marshalMatmul makes %.0f allocations of %.2fx the %d-byte reply, want <= 16 and <= 1.5x",
			allocs, perRun, len(out))
	}
}

// TestReplyContentLength: every JSON reply, small or large, carries a
// Content-Length equal to its body and is not sent chunked.
func TestReplyContentLength(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, c := range []struct{ name, method, path, body string }{
		{"JSON error", http.MethodPost, "/v1/matmul", `{"n":0}`},
		{"plain reply", http.MethodGet, "/v1/plan?n=64&p=16", ""},
		{"return_matrix reply", http.MethodPost, "/v1/matmul", `{"n":64,"p":8,"seed":3,"return_matrix":true}`},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(data)) || len(resp.TransferEncoding) != 0 || !json.Valid(data) {
			t.Errorf("%s: status %d, Content-Length %d, Transfer-Encoding %v, %d-byte body",
				c.name, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, len(data))
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing of the body.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d discardWriter) WriteHeader(int)             {}

// BenchmarkEncodeMatmul times writeMatmul against writeJSON, the
// reference, on the serve-inline (n = 192) reply.
func BenchmarkEncodeMatmul(b *testing.B) {
	resp := matmulReply(b, 192, 8)
	for _, e := range []struct {
		name  string
		write func(http.ResponseWriter)
	}{
		{"encode", func(w http.ResponseWriter) { writeMatmul(w, resp) }},
		{"reference", func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, resp) }},
	} {
		b.Run("inline/"+e.name, func(b *testing.B) {
			w := discardWriter{http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.write(w)
			}
		})
	}
}
