package hypercube

import "testing"

// Native fuzz targets; their seed corpora run as ordinary tests.

func FuzzGrayRoundTrip(f *testing.F) {
	for _, seed := range []int{0, 1, 2, 255, 1023, 1 << 20} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, i int) {
		if i < 0 {
			i = -i
		}
		i %= 1 << 30
		if GrayRank(Gray(i)) != i {
			t.Fatalf("round trip failed at %d", i)
		}
		if i > 0 && HammingDist(Gray(i), Gray(i-1)) != 1 {
			t.Fatalf("Gray(%d) and Gray(%d) not adjacent", i, i-1)
		}
	})
}

func FuzzRouteValidity(f *testing.F) {
	f.Add(0, 63)
	f.Add(21, 42)
	f.Fuzz(func(t *testing.T, src, dst int) {
		const p = 256
		src, dst = ((src%p)+p)%p, ((dst%p)+p)%p
		c := New(p)
		path := c.Route(src, dst)
		if len(path) != c.Hops(src, dst) {
			t.Fatalf("route length %d != distance %d", len(path), c.Hops(src, dst))
		}
		cur := src
		for _, nxt := range path {
			if HammingDist(cur, nxt) != 1 {
				t.Fatalf("non-adjacent hop %d -> %d", cur, nxt)
			}
			cur = nxt
		}
		if cur != dst {
			t.Fatalf("route ends at %d, want %d", cur, dst)
		}
	})
}

func FuzzChainEmbedding(f *testing.F) {
	f.Add(uint8(3), uint8(9))
	f.Fuzz(func(t *testing.T, db, baseb uint8) {
		d := 1 + int(db)%5
		// Chain over the low d dims, base in the dims above.
		base := (int(baseb) % 8) << d
		ch := span(base, 0, d)
		q := ch.Q()
		for pos := 0; pos < q; pos++ {
			n := ch.NodeAt(pos)
			if ch.PosOf(n) != pos {
				t.Fatalf("pos round trip failed at %d", pos)
			}
			nb := ch.NodeAt((pos + 1) % q)
			if HammingDist(n, nb) != 1 {
				t.Fatalf("ring break between %d and %d", pos, (pos+1)%q)
			}
		}
	})
}
