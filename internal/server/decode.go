package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"strconv"
)

// decodeMatmul decodes a POST /v1/matmul body into req, which must be
// zero. The inline operands are nearly all of an inline body (two
// 36,864-number arrays at n = 192, ~1.5 MB), so one pass over the
// top-level object parses flat "a"/"b" number arrays straight into
// exactly sized slices, each number converted exactly by parseNumber
// (without strconv for up to 19 significant digits); the other members
// are copied into a small remainder that json.Unmarshal decodes, which
// keeps the standard semantics for every small field (case-folded
// keys, unknown fields, null, type errors). Whatever that pass does
// not handle — an escaped key, an "A"/"B" key, a duplicate operand, a
// non-array, nested or non-numeric element, a number outside the JSON
// grammar or out of float64 range, bytes after the object — makes it
// decline, and the reference decoder decodes the whole body instead:
// every error, and its text, comes from there.
func decodeMatmul(body []byte, req *MatmulRequest) error {
	if decodeMatmulFast(body, req) {
		return nil
	}
	*req = MatmulRequest{}
	return decodeMatmulReference(body, req)
}

// decodeMatmulReference is the reflection-based decoder: the fast
// path's fallback and the oracle FuzzDecodeMatmul compares it against.
func decodeMatmulReference(body []byte, req *MatmulRequest) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// decodeMatmulFast is the single pass into a zero req. It reports
// false, leaving req in an unspecified state, whenever the body is
// anything but a well-formed object it fully understands.
func decodeMatmulFast(body []byte, req *MatmulRequest) bool {
	open := skipSpace(body, 0)
	if open == len(body) || body[open] != '{' {
		return false
	}
	// rest collects the members other than "a"/"b" as one object.
	rest := append(make([]byte, 0, 128), '{')
	i := skipSpace(body, open+1)
	if i < len(body) && body[i] == '}' {
		i++
	} else {
		for {
			if i == len(body) || body[i] != '"' {
				return false
			}
			key := i
			i++
			for i < len(body) && body[i] != '"' {
				if body[i] == '\\' {
					return false
				}
				i++
			}
			if i == len(body) {
				return false
			}
			name := body[key+1 : i]
			keyEnd := i + 1
			i = skipSpace(body, keyEnd)
			if i == len(body) || body[i] != ':' {
				return false
			}
			i = skipSpace(body, i+1)
			var ok bool
			switch string(name) {
			case "a", "b":
				dst := &req.A
				if name[0] == 'b' {
					dst = &req.B
				}
				if *dst != nil { // a duplicate: which wins is the reference's call
					return false
				}
				*dst, i, ok = parseFloats(body, i)
			case "A", "B":
				// Field matching folds case: which of "a" and "A" wins
				// is the reference decoder's call.
				return false
			default:
				end := skipValue(body, i)
				if ok = end >= 0; ok {
					if len(rest) > 1 {
						rest = append(rest, ',')
					}
					rest = append(rest, body[key:keyEnd]...)
					rest = append(rest, ':')
					rest = append(rest, body[i:end]...)
				}
				i = end
			}
			if !ok {
				return false
			}
			i = skipSpace(body, i)
			if i == len(body) {
				return false
			}
			if body[i] == '}' {
				i++
				break
			}
			if body[i] != ',' {
				return false
			}
			i = skipSpace(body, i+1)
		}
	}
	if skipSpace(body, i) != len(body) {
		return false
	}
	// rest holds no "a"/"b" key, so Unmarshal leaves the operands be.
	return json.Unmarshal(append(rest, '}'), req) == nil
}

// parseFloats parses the flat number array starting at body[i] into a
// slice of k values, k counted from the array's commas, and returns it
// and the index just past the closing bracket.
func parseFloats(body []byte, i int) ([]float64, int, bool) {
	if i == len(body) || body[i] != '[' {
		return nil, 0, false
	}
	end := bytes.IndexByte(body[i:], ']')
	if end < 0 {
		return nil, 0, false
	}
	end += i
	j := skipSpace(body, i+1)
	if j == end {
		return []float64{}, end + 1, true
	}
	k := bytes.Count(body[j:end], []byte{','}) + 1
	vals := make([]float64, k)
	for n := 0; ; n++ {
		var ok bool
		if vals[n], j, ok = parseNumber(body, j); !ok {
			return nil, 0, false
		}
		j = skipSpace(body, j)
		if j == end {
			return vals, end + 1, n+1 == k
		}
		if body[j] != ',' {
			return nil, 0, false
		}
		j = skipSpace(body, j+1)
	}
}

// exactPow10 holds the powers of ten float64 represents exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// pow10 holds 10^k for k <= 19, the powers of ten below 2^64, and
// pow5 holds 5^k for k <= 27, the powers of five below 2^63.
var pow10, pow5 = func() (p10 [20]uint64, p5 [28]uint64) {
	p10[0], p5[0] = 1, 1
	for k := 1; k < len(p5); k++ {
		if k < len(p10) {
			p10[k] = 10 * p10[k-1]
		}
		p5[k] = 5 * p5[k-1]
	}
	return p10, p5
}()

// parseNumber parses the JSON number starting at body[i]
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) and returns its
// value and end; ok is false if no number starts there or it is out of
// float64 range. The literal is read as m·10^e with m its significant
// digits. A mantissa of at most 2^53 scaled by at most 10^±22 is one
// correctly rounded float64 operation (strconv's own exact path); any
// other m of at most 19 digits with e in [-27, 19] — every 17-digit
// number a random operand prints — takes mulPow10's exact integer
// path; only the rest go to strconv.ParseFloat.
func parseNumber(body []byte, i int) (v float64, end int, ok bool) {
	start := i
	neg := i < len(body) && body[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	digits, exp := 0, 0 // significant digits in mant; power of ten it is scaled by
	digit := func() {
		if digits < 19 {
			mant = mant*10 + uint64(body[i]-'0')
			if mant != 0 {
				digits++
			}
		} else {
			digits = 20 // more than uint64 holds: ParseFloat decides
		}
		i++
	}
	switch {
	case i == len(body):
		return 0, 0, false
	case body[i] == '0':
		i++
	case '1' <= body[i] && body[i] <= '9':
		for i < len(body) && '0' <= body[i] && body[i] <= '9' {
			digit()
		}
	default:
		return 0, 0, false
	}
	if i < len(body) && body[i] == '.' {
		i++
		frac := i
		for i < len(body) && '0' <= body[i] && body[i] <= '9' {
			digit()
			exp--
		}
		if i == frac {
			return 0, 0, false
		}
	}
	if i < len(body) && (body[i] == 'e' || body[i] == 'E') {
		i++
		eneg := i < len(body) && body[i] == '-'
		if i < len(body) && (body[i] == '+' || body[i] == '-') {
			i++
		}
		e, first := 0, i
		for ; i < len(body) && '0' <= body[i] && body[i] <= '9'; i++ {
			if e < 1e4 {
				e = e*10 + int(body[i]-'0')
			}
		}
		if i == first {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	switch {
	case digits <= 19 && mant <= 1<<53 && -22 <= exp && exp <= 22:
		v = float64(mant)
		if exp >= 0 {
			v *= exactPow10[exp]
		} else {
			v /= exactPow10[-exp]
		}
	case digits <= 19 && mant != 0 && -27 <= exp && exp <= 19:
		v = mulPow10(mant, exp)
	default:
		v, err := strconv.ParseFloat(string(body[start:i]), 64)
		return v, i, err == nil
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// mulPow10 returns m·10^e correctly rounded (half to even), for
// 1 <= m < 10^19 and -27 <= e <= 19. It first forms a 64-bit x with
// its top bit set and a sticky flag such that m·10^e lies in
// [x, x+1)·2^s, and in (x, x+1)·2^s exactly when sticky:
//   - e >= 0: 10^e < 2^64, so m·10^e is the exact 128-bit product,
//     normalized; sticky is whether any bit shifted out was set.
//   - e < 0: m·10^e = m·2^e / 5^-e with 5^-e < 2^63. Dividing m
//     normalized to 64 bits, times 2^(L-1) for L the bit length of
//     5^-e, by 5^-e gives a quotient in [2^62, 2^64) (the high word
//     stays below the divisor, as bits.Div64 needs); sticky is a
//     nonzero remainder.
//
// Rounding x to 53 bits once, with its low 11 bits as round and sticky
// bits, is then exact; every value in range is a normal float64
// (1e-27 to below 1e38), so the power-of-two scaling loses nothing.
func mulPow10(m uint64, e int) float64 {
	var x uint64
	var sticky bool
	var s int
	if e >= 0 {
		hi, lo := bits.Mul64(m, pow10[e])
		if hi == 0 {
			n := bits.LeadingZeros64(lo)
			x, s = lo<<n, -n
		} else {
			n := bits.LeadingZeros64(hi)
			x, sticky, s = hi<<n|lo>>(64-n), lo<<n != 0, 64-n
		}
	} else {
		d := pow5[-e]
		n := bits.LeadingZeros64(m)
		l := 63 - bits.LeadingZeros64(d) // L-1, in [2, 62]
		q, r := bits.Div64(m<<n>>(64-l), m<<n<<l, d)
		k := bits.LeadingZeros64(q) // 0 or 1
		x, sticky, s = q<<k, r != 0, e-n-l-k
	}
	mant := x >> 11
	if rest := x & (1<<11 - 1); rest > 1<<10 || rest == 1<<10 && (sticky || mant&1 == 1) {
		mant++ // may reach 2^53, which float64 still holds exactly
	}
	return math.Ldexp(float64(mant), s+11)
}

// skipSpace returns the index of the first non-whitespace byte at or
// after i (len(body) if none).
func skipSpace(body []byte, i int) int {
	for i < len(body) {
		switch body[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// skipValue returns the index of the ',' or '}' that ends the member
// value starting at body[i], skipping strings and nested brackets, or
// -1 if the object ends first. It only delimits the value: the copy in
// the remainder is validated by json.Unmarshal.
func skipValue(body []byte, i int) int {
	depth := 0
	for ; i < len(body); i++ {
		switch body[i] {
		case '"':
			for i++; i < len(body) && body[i] != '"'; i++ {
				if body[i] == '\\' {
					i++
				}
			}
			if i >= len(body) {
				return -1
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				if body[i] == '}' {
					return i
				}
				return -1
			}
			depth--
		case ',':
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}
