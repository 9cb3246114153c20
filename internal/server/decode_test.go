package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
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

// hardLiterals are numbers at the edges of parseNumber's paths:
// rounding ties between adjacent doubles, the 19/20-digit and
// exponent limits of the integer path, and zero and exponent forms.
var hardLiterals = []string{
	"9007199254740993", "9007199254740995", "-9007199254740993", // 2^53+1, +3: ties
	"4503599627370496.5", "4503599627370497.5", "45035996273704965e-1", // ties at 17 digits
	"144115188075855888", "144115188075855889", "144115188075855887", // 2^57+16: an 18-digit tie
	"1152921504606847104", "1152921504606847360", "1152921504606847103", "1152921504606847361", // 19-digit ties, ±1
	"9223372036854775807", "9223372036854775808", "18446744073709551615", "18446744073709551616",
	"9999999999999999999", "99999999999999999999", "12345678901234567890", "1000000000000000000000",
	"1e-27", "1e-28", "1234567890123456789e-27", "1234567890123456789e-28", "0.1234567890123456789e-8",
	"9999999999999999999e19", "9999999999999999999e20", "1e19", "1e20", "1e22", "1e23",
	"12345678901234567e19", "12345678901234567e20", "12345678901234567e22", "12345678901234567e23",
	"9007199254740993e22", "9007199254740993e23", "9007199254740993e-22", "9007199254740993e-23",
	"0.30000000000000004", "0.1", "0.7", "2.2250738585072014e-308", "1.7976931348623157e308", "4.9e-324",
	"-0", "-0.0", "0e-30", "-0e25", "0.000000000000000000000000000001", "0.00000000000000000000012345678901234567",
	"1E+5", "1e+05", "-1.5E-5", "123456789012345678.9", "0.99999999999999999999",
}

func TestParseNumberHardLiterals(t *testing.T) {
	for _, lit := range hardLiterals {
		checkParse(t, lit)
	}
}

// checkParse compares parseNumber on lit with strconv.ParseFloat, bit
// for bit.
func checkParse(t *testing.T, lit string) {
	t.Helper()
	want, err := strconv.ParseFloat(lit, 64)
	got, end, ok := parseNumber([]byte(lit), 0)
	if !ok || end != len(lit) || err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("parseNumber(%s) = %v (%x), end %d, ok %v; ParseFloat: %v (%x), %v",
			lit, got, math.Float64bits(got), end, ok, want, math.Float64bits(want), err)
	}
}

// TestParseNumberDifferential holds parseNumber, and mulPow10 alone on
// its whole range, to strconv.ParseFloat on a million seeded m·10^e
// with 1 to 20 digits and e in [-30, 23], printed in integer,
// fractional and exponent forms, and on ties between adjacent doubles
// and decimals within a 19-digit rounding of those ties.
func TestParseNumberDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	var buf []byte
	for range 1_000_000 {
		digits := 1 + rng.Intn(20)
		m := uint64(rng.Int63n(9) + 1)
		for range digits - 1 {
			m = m*10 + uint64(rng.Intn(10))
		}
		e := rng.Intn(54) - 30
		if digits <= 19 && -27 <= e && e <= 19 {
			got, want := mulPow10(m, e), float64FromDecimal(m, e)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("mulPow10(%d, %d) = %v, ParseFloat %v", m, e, got, want)
			}
		}
		buf = strconv.AppendUint(buf[:0], m, 10)
		switch rng.Intn(3) {
		case 0: // m e<e>
			buf = strconv.AppendInt(append(buf, 'e'), int64(e), 10)
		case 1: // a decimal point inside the digits, the exponent adjusted
			if k := len(buf); k > 1 {
				dot := 1 + rng.Intn(k-1)
				buf = append(buf[:dot], append([]byte{'.'}, buf[dot:]...)...)
				e += k - dot
			}
			buf = append(buf, "eE"[rng.Intn(2)])
			if e >= 0 && rng.Intn(2) == 0 {
				buf = append(buf, '+')
			}
			buf = strconv.AppendInt(buf, int64(e), 10)
		default: // 0.<zeros><digits>
			buf = append(append([]byte("-0."), bytes.Repeat([]byte{'0'}, rng.Intn(12))...), buf...)
		}
		checkParse(t, string(buf))
	}
	// Ties (2^53+2j+1)·2^(t-1) have at most 19 digits for t in
	// [-2, 3]: exact ties, one unit either side, and decimals within
	// 10^-19 of a tie anywhere in the integer path's range.
	for range 20_000 {
		mid := 1<<53 | uint64(rng.Int63n(1<<52))<<1 | 1
		var lit string
		if sh := rng.Intn(6) - 2; sh <= 0 {
			lit = new(big.Float).SetMantExp(new(big.Float).SetUint64(mid), sh-1).Text('f', 1-sh)
		} else {
			lit = strconv.FormatUint(mid<<sh>>1, 10)
		}
		checkParse(t, lit)
		m, _ := strconv.ParseUint(strings.ReplaceAll(lit, ".", ""), 10, 64)
		e := strings.Index(lit, ".") - len(lit) + 1
		if !strings.Contains(lit, ".") {
			e = 0
		}
		checkParse(t, strconv.FormatUint(m-1, 10)+"e"+strconv.Itoa(e))
		checkParse(t, strconv.FormatUint(m+1, 10)+"e"+strconv.Itoa(e))

		x := math.Ldexp(float64(1<<52|rng.Int63n(1<<52)), rng.Intn(140)-90-52)
		tie := new(big.Float).SetPrec(256).SetFloat64(x)
		tie.Add(tie, new(big.Float).SetMantExp(big.NewFloat(1), math.Ilogb(x)-53))
		checkParse(t, tie.Text('e', 18))
	}
}

// float64FromDecimal is m·10^e by strconv.ParseFloat.
func float64FromDecimal(m uint64, e int) float64 {
	v, err := strconv.ParseFloat(strconv.FormatUint(m, 10)+"e"+strconv.Itoa(e), 64)
	if err != nil {
		panic(err)
	}
	return v
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
	f.Add([]byte(`{"a":[12345678901234567,-0.12345678901234567,1234567890123456789e-27,-9999999999999999999e19]}`))
	f.Add([]byte(`{"b":[1152921504606847104,4503599627370496.5,123456789012345678e-28,123456789012345678e20],"n":1}`))
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
