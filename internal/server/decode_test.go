package server

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"hypermm"
)

// loadBody mirrors the request bodies the benchmark's load generator
// sends: only the fields it sets, in MatmulRequest's order.
type loadBody struct {
	N         int       `json:"n"`
	P         int       `json:"p"`
	Algorithm string    `json:"algorithm"`
	Seed      int64     `json:"seed,omitempty"`
	A         []float64 `json:"a,omitempty"`
	B         []float64 `json:"b,omitempty"`
	ReturnC   bool      `json:"return_matrix,omitempty"`
}

// inlineBody is a serve-inline request: n x n random operands inline
// and the product asked back.
func inlineBody(tb testing.TB, n, p int) []byte {
	tb.Helper()
	body, err := json.Marshal(loadBody{
		N: n, P: p, Algorithm: "auto",
		A:       hypermm.RandomMatrix(n, n, 7).Data,
		B:       hypermm.RandomMatrix(n, n, 8).Data,
		ReturnC: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// seededBody is a serve-small request: operands generated server-side.
func seededBody(tb testing.TB, n, p int) []byte {
	tb.Helper()
	body, err := json.Marshal(loadBody{N: n, P: p, Algorithm: "auto", Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// sameRequest compares two decoded requests, the operands bit for bit.
func sameRequest(x, y *MatmulRequest) bool {
	if !sameFloats(x.A, y.A) || !sameFloats(x.B, y.B) {
		return false
	}
	xs, ys := *x, *y
	xs.A, xs.B, ys.A, ys.B = nil, nil, nil, nil
	return reflect.DeepEqual(xs, ys)
}

func sameFloats(x, y []float64) bool {
	if (x == nil) != (y == nil) || len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// decodeCases lists bodies with whether the single pass should take
// them (false: it declines and the reference decoder answers).
var decodeCases = []struct {
	body string
	fast bool
}{
	{`{"n":2,"p":4,"algorithm":"auto","a":[1,2,3,4],"b":[5,6,7,8],"return_matrix":true}`, true},
	{`{"n":16,"p":8,"algorithm":"auto","seed":7}`, true},
	{`{}`, true},
	{` { "a" : [ 1 , 2` + "\n,\t3\r" + ` ] , "n" : 2 , "b":[ ] } ` + "\n", true},
	{`{"a":[-0,0,-0.0,0e0,-0E-0]}`, true},
	{`{"a":[1e22,1e23,123e-22,1e-23,9007199254740993,18446744073709551617,1234567890123456789012e-5,0.000000000000000000000001]}`, true},
	{`{"b":[1.5e-300,4.9e-324,1e-400,-1.7976931348623157e308],"P":3,"unknown":{"x":[1,"]}"]}}`, true},
	{`{"seed":3,"fault":{"seed":1,"drop":0.5,"down":[[0,1,2,3]]},"a":[1],"ts":null,"class":"batch","b":[2]}`, true},
	{`{"n":"x","a":[1]}`, false}, // a type error: the reference reports it
	{`{"A":[1,2],"B":[3,4]}`, false},
	{`{"a":[1],"A":[2]}`, false},
	{`{"a":null,"b":null}`, false},
	{`{"a":[1],"a":[2]}`, false},
	{`{"a":[[1],[2]]}`, false},
	{`{"a":[1e400]}`, false},
	{`{"a":[01]}`, false},
	{`{"a":[1.]}`, false},
	{`{"a":[.5]}`, false},
	{`{"a":[+1]}`, false},
	{`{"a":[1,]}`, false},
	{`{"a":["1"]}`, false},
	{`{"a":{"0":1}}`, false},
	{`{"\u0061":[1]}`, false},
	{`{"a":[1]} x`, false},
	{`{"a":[1]}{}`, false},
	{`{"n":1 2,"a":[1]}`, false},
	{`{"n":1,}`, false},
	{`{"a":[1]`, false},
	{`[1]`, false},
	{``, false},
}

func TestDecodeMatmulFastPath(t *testing.T) {
	for _, c := range decodeCases {
		body := []byte(c.body)
		var fast, ref MatmulRequest
		took := decodeMatmulFast(body, &fast)
		if took != c.fast {
			t.Errorf("%s: fast path took it = %v, want %v", c.body, took, c.fast)
		}
		refErr := decodeMatmulReference(body, &ref)
		if took && (refErr != nil || !sameRequest(&fast, &ref)) {
			t.Errorf("%s: fast path decoded %+v, reference %+v (%v)", c.body, fast, ref, refErr)
		}
	}
}

// FuzzDecodeMatmul holds the single pass to the reference decoder:
// whatever body it accepts, the reference accepts too and decodes to
// the same request, operands bit for bit. (Every body it declines is
// the reference decoder's alone.) The inline seed is the serve-inline
// body at n = 4: a 1.5 MB seed leaves the fuzzer minimizing instead
// of exploring.
func FuzzDecodeMatmul(f *testing.F) {
	f.Add(inlineBody(f, 4, 8))
	f.Add(seededBody(f, 16, 8))
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast MatmulRequest
		if !decodeMatmulFast(body, &fast) {
			return
		}
		var ref MatmulRequest
		if err := decodeMatmulReference(body, &ref); err != nil {
			t.Fatalf("fast path accepted %q; reference: %v", body, err)
		}
		if !sameRequest(&fast, &ref) {
			t.Fatalf("%q: fast path decoded %+v, reference %+v", body, fast, ref)
		}
	})
}

// TestDecodeMatmulInlineAllocs decodes a full serve-inline body (n =
// 192) on the single pass, bit for bit as the reference does, and pins
// its allocation count (the reference makes 73 and ~7.3 MB).
func TestDecodeMatmulInlineAllocs(t *testing.T) {
	body := inlineBody(t, 192, 8)
	var req, ref MatmulRequest
	if !decodeMatmulFast(body, &req) {
		t.Fatal("fast path declined the serve-inline body")
	}
	if err := decodeMatmulReference(body, &ref); err != nil || !sameRequest(&req, &ref) {
		t.Fatalf("fast path and reference disagree on the serve-inline body (%v)", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		req = MatmulRequest{}
		if err := decodeMatmul(body, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Errorf("decoding the n=192 inline body makes %.0f allocations, want <= 20", allocs)
	}
}

// BenchmarkDecodeMatmul times decodeMatmul against the reference
// decoder on a serve-inline (n = 192) and a serve-small body.
func BenchmarkDecodeMatmul(b *testing.B) {
	decoders := []struct {
		name   string
		decode func([]byte, *MatmulRequest) error
	}{{"decode", decodeMatmul}, {"reference", decodeMatmulReference}}
	for _, c := range []struct {
		name string
		body []byte
	}{{"inline", inlineBody(b, 192, 8)}, {"seeded", seededBody(b, 16, 8)}} {
		for _, d := range decoders {
			b.Run(c.name+"/"+d.name, func(b *testing.B) {
				b.SetBytes(int64(len(c.body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var req MatmulRequest
					if err := d.decode(c.body, &req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
