package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCutArrayMember(t *testing.T) {
	for _, c := range []struct {
		in, rest string
		elems    int
	}{
		{`{"a":1,"c":[1,2.5,-3e-7],"z":"s"}`, `{"a":1,"z":"s"}`, 3},
		{`{"c":[1,2],"a":1}`, `{"a":1}`, 2},
		{`{"a":1,"c":[7]}`, `{"a":1}`, 1},
		{`{"c":[]}`, `{}`, 0},
		{`{"a":1}`, `{"a":1}`, -1},
		{`{"a":1,"c":[1,2`, `{"a":1,"c":[1,2`, -1},
	} {
		rest, elems := cutArrayMember([]byte(c.in), "c")
		if string(rest) != c.rest || elems != c.elems {
			t.Errorf("cutArrayMember(%s) = %s, %d; want %s, %d", c.in, rest, elems, c.rest, c.elems)
		}
		if c.elems >= 0 && !json.Valid(rest) {
			t.Errorf("cutArrayMember(%s) left invalid JSON %s", c.in, rest)
		}
	}
}

// The correctness gate: a reply is accepted only with status 200, the
// cost model's algorithm, the bit-exact simulated time and, inline, the
// right product.
func TestSendVerifiesReplies(t *testing.T) {
	pl, err := newPlan(workload{name: "t", topo: standalone, kinds: func() []kind {
		return []kind{{n: 8, p: 8, algReq: "auto"}, {n: 8, p: 8, algReq: "auto", inline: true}}
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeded, inline := &pl.kinds[0], &pl.kinds[1]
	if !strings.Contains(string(inline.body), `"return_matrix":true`) || strings.Contains(string(seeded.body), `"a":`) {
		t.Fatalf("request bodies are wrong: %s / %.80s", seeded.body, inline.body)
	}

	reply := func(alg string, elapsed float64, c []float64) string {
		b, _ := json.Marshal(map[string]any{
			"algorithm": alg, "simulated": map[string]any{"elapsed": elapsed, "msgs": 32, "words": 100},
			"ratio": 1.01, "c": c,
		})
		return string(b)
	}
	var status int
	var body string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		fmt.Fprint(w, body)
	}))
	defer ts.Close()
	g := newHTTPGen(pl, ts.URL)
	defer g.close()

	good := reply(seeded.alg.Name(), seeded.elapsed, nil)
	for _, c := range []struct {
		name   string
		kind   int
		full   bool
		status int
		body   string
		ok     bool
	}{
		{"good", 0, true, 200, good, true},
		{"refused", 0, true, 429, `{"error":"saturated"}`, false},
		{"wrong algorithm", 0, true, 200, reply("cannon", seeded.elapsed, nil), false},
		{"simulated time off by an ulp", 0, true, 200, reply(seeded.alg.Name(), seeded.elapsed*(1+1e-15), nil), false},
		{"not JSON", 0, true, 200, "oops", false},
		{"inline good, full check", 1, true, 200, reply(inline.alg.Name(), inline.elapsed, inline.wantC.Data), true},
		{"inline good, length check", 1, false, 200, reply(inline.alg.Name(), inline.elapsed, inline.wantC.Data), true},
		{"inline short product", 1, false, 200, reply(inline.alg.Name(), inline.elapsed, inline.wantC.Data[1:]), false},
		{"inline wrong product", 1, true, 200, reply(inline.alg.Name(), inline.elapsed, append([]float64{inline.wantC.Data[0] + 1e-6}, inline.wantC.Data[1:]...)), false},
		{"inline product missing", 1, false, 200, reply(inline.alg.Name(), inline.elapsed, nil), false},
	} {
		status, body = c.status, c.body
		err := g.send(0, c.kind, c.full)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	tl := g.total()
	if tl.Jobs != 3 || tl.Msgs != 96 || tl.Elapsed[0] != seeded.elapsed || tl.ModelRatio[1] != 1.01 {
		t.Errorf("tally = %+v, want the three good replies", tl)
	}
}
