package simnet

import (
	"math/bits"
	"sync"
)

// Payload buffer reuse. A copying Send takes its buffer from the run's
// free list; a receiver that has fully consumed the payload may put it
// back with Msg.Release, one that keeps the payload (or a sub-slice)
// lets the GC have it. Owned sends carry no free list, so Release is
// safe on any fully consumed message. A run takes a list from a
// process-wide pool when it starts and returns it when it ends, after
// releasing every message no receive took: the list needs no lock (a
// run's node programs all run on one goroutine), and a freshly built
// machine reuses earlier runs' buffers like a warm one.

// maxPayloadClass bounds reused buffers at 2^24 words (128 MiB);
// anything larger is allocated directly and left to the GC.
const maxPayloadClass = 24

// freeList keeps released payload buffers by power-of-two size class.
type freeList struct {
	bufs [maxPayloadClass + 1][][]float64
	out  int // buffers handed out during the run and not yet released
}

// freeLists holds the free lists of the runs not in flight.
var freeLists = sync.Pool{New: func() any { return new(freeList) }}

// payloadClass returns the smallest c with 1<<c >= n.
func payloadClass(n int) int { return bits.Len(uint(n - 1)) }

// get returns a buffer of length n > 0 (capacity rounded up to its size
// class) and the list it returns to, nil for an oversized buffer.
func (f *freeList) get(n int) ([]float64, *freeList) {
	c := payloadClass(n)
	if c > maxPayloadClass {
		return make([]float64, n), nil
	}
	f.out++
	if q := f.bufs[c]; len(q) > 0 {
		d := q[len(q)-1]
		q[len(q)-1] = nil
		f.bufs[c] = q[:len(q)-1]
		return d[:n], f
	}
	return make([]float64, n, 1<<c), f
}

// put returns a buffer that get handed out.
func (f *freeList) put(d []float64) {
	f.out--
	c := payloadClass(cap(d))
	f.bufs[c] = append(f.bufs[c], d[:0])
}

// Release recycles the message's transport-allocated payload buffer, if
// any. Call it at most once, and only after the payload is fully
// consumed: the buffer, including every sub-slice of Data, is reused by
// later sends. Messages whose payload the receiver retains must never
// be released. Owned-send payloads are left to the garbage collector.
func (m Msg) Release() {
	if m.free != nil {
		m.free.put(m.Data)
	}
}
