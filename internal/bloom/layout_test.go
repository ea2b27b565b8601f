package bloom

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"cole/internal/types"
)

// wordFilter is the filter as it was before its in-memory layout became
// the wire layout: a []uint64 bit array and a per-word encoder. It stays
// here as the reference the byte-layout Filter must marshal identically
// to — .met files, proofs and every run digest depend on these bytes.
type wordFilter struct {
	bits    []uint64
	nbits   uint64
	hashes  int
	entries uint64
}

func newWordFilter(f *Filter) *wordFilter {
	return &wordFilter{bits: make([]uint64, (f.nbits+63)/64), nbits: f.nbits, hashes: f.hashes}
}

// baseHashes is the pre-Probe derivation of the two base hashes (a
// streaming SHA-256 through types.HashData), kept as the reference
// NewProbe's stack hash must equal.
func baseHashes(addr types.Address) (uint64, uint64) {
	h := types.HashData(addr[:])
	return binary.BigEndian.Uint64(h[0:8]), binary.BigEndian.Uint64(h[8:16])
}

func (f *wordFilter) add(addr types.Address) {
	h1, h2 := baseHashes(addr)
	for i := 0; i < f.hashes; i++ {
		pos := (h1 + uint64(i)*h2) % f.nbits
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.entries++
}

func (f *wordFilter) addRepeat() { f.entries++ }

func (f *wordFilter) union(o *wordFilter) {
	for i, w := range o.bits {
		f.bits[i] |= w
	}
	f.entries += o.entries
}

func (f *wordFilter) clone() *wordFilter {
	c := *f
	c.bits = append([]uint64(nil), f.bits...)
	return &c
}

func (f *wordFilter) marshal() []byte {
	buf := make([]byte, 8+8+8+8*len(f.bits))
	binary.BigEndian.PutUint64(buf[0:8], f.nbits)
	binary.BigEndian.PutUint64(buf[8:16], uint64(f.hashes))
	binary.BigEndian.PutUint64(buf[16:24], f.entries)
	for i, w := range f.bits {
		binary.BigEndian.PutUint64(buf[24+8*i:], w)
	}
	return buf
}

// TestMarshalMatchesWordArrayEncoder drives both representations through
// the same Add/AddRepeat/Union/Clone sequences, at sizes that exercise a
// partial last word, a single word and many words, and requires the
// marshaled bytes to agree at every step.
func TestMarshalMatchesWordArrayEncoder(t *testing.T) {
	addr := types.AddressFromUint64
	cases := []struct {
		name string
		n    int
		fp   float64
	}{
		{"one-word", 1, 0.5},
		{"partial-last-word", 10, 0.01},
		{"many-words", 3000, 0.01},
		{"one-hash", 100, 0.6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := New(tc.n, tc.fp)
			want := newWordFilter(got)
			check := func(step string, g *Filter, w *wordFilter) {
				t.Helper()
				if !bytes.Equal(g.Marshal(), w.marshal()) {
					t.Fatalf("%s: marshaled bytes differ from the word-array encoder", step)
				}
			}
			check("empty", got, want)
			for i := 0; i < tc.n; i++ {
				got.Add(addr(uint64(i) * 7))
				want.add(addr(uint64(i) * 7))
				if i%3 == 0 { // a second version of the same address
					got.AddRepeat()
					want.addRepeat()
				}
			}
			check("Add+AddRepeat", got, want)

			// A span filter of the same geometry, unioned in.
			spanGot, spanWant := New(tc.n, tc.fp), newWordFilter(got)
			for i := 0; i < tc.n; i++ {
				spanGot.Add(addr(1<<40 + uint64(i)))
				spanWant.add(addr(1<<40 + uint64(i)))
			}
			cloneGot, cloneWant := got.Clone(), want.clone()
			if err := got.Union(spanGot); err != nil {
				t.Fatal(err)
			}
			want.union(spanWant)
			check("Union", got, want)
			check("Clone taken before Union", cloneGot, cloneWant)

			// The clone is independent in both directions.
			cloneGot.Add(addr(99999))
			cloneWant.add(addr(99999))
			check("Clone after its own Add", cloneGot, cloneWant)
			check("original after the clone's Add", got, want)

			// Wrapping the bytes changes nothing, and probes agree bit for bit.
			wrapped, err := Unmarshal(got.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			check("Unmarshal", wrapped, want)
			for i := uint64(0); i < 2000; i++ {
				a := addr(i)
				if wrapped.MayContain(a) != got.MayContain(a) {
					t.Fatalf("wrapped filter disagrees with the original on %d", i)
				}
			}
		})
	}
}

func TestUnionRejectsMismatchedGeometry(t *testing.T) {
	if err := New(100, 0.01).Union(New(200, 0.01)); err == nil {
		t.Fatal("union of differently sized filters must error")
	}
}

// TestMarshalIsACopy: what Marshal returns never aliases the live filter
// (proofs carry these bytes out of the engine), and Unmarshal does alias
// its input (that is its contract: no decode, no copy).
func TestMarshalIsACopy(t *testing.T) {
	f := New(100, 0.01)
	a := types.AddressFromUint64(5)
	f.Add(a)
	b := f.Marshal()
	for i := range b {
		b[i] = ^b[i]
	}
	if !f.MayContain(a) || f.Entries() != 1 {
		t.Fatal("mutating Marshal's result reached the live filter")
	}
	raw := f.Marshal()
	g, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = Unmarshal(raw) }); allocs > 1 {
		t.Fatalf("Unmarshal allocates %.0f times, want at most the Filter header", allocs)
	}
	out := g.Marshal()
	out[len(out)-1] ^= 0xFF
	if !bytes.Equal(raw, f.Marshal()) {
		t.Fatal("mutating a wrapped filter's Marshal result reached the wrapped bytes")
	}
}

// overflowHeader is the adversarial 24-byte filter: nbits = 2^64-1 makes
// (nbits+63)/64 wrap to 0 words, so a header with no body used to be
// accepted and the first probe indexed an empty bit array.
func overflowHeader() []byte {
	b := make([]byte, headerSize)
	binary.BigEndian.PutUint64(b[0:8], math.MaxUint64)
	binary.BigEndian.PutUint64(b[8:16], 3)
	return b
}

func TestUnmarshalRejectsWordCountOverflow(t *testing.T) {
	if _, err := Unmarshal(overflowHeader()); err == nil {
		t.Fatal("nbits=2^64-1 with an empty body must be rejected")
	}
	// Every nbits in the wrapping window, and just below it, against
	// bodies of 0 and 1 words.
	for _, nbits := range []uint64{math.MaxUint64 - 62, math.MaxUint64 - 63, math.MaxUint64 - 64, 1 << 63, 65, 129} {
		for _, words := range []int{0, 1} {
			b := make([]byte, headerSize+8*words)
			binary.BigEndian.PutUint64(b[0:8], nbits)
			binary.BigEndian.PutUint64(b[8:16], 3)
			if _, err := Unmarshal(b); err == nil {
				t.Fatalf("nbits=%d with %d body words must be rejected", nbits, words)
			}
		}
	}
	// A body that is not a whole number of words.
	b := make([]byte, headerSize+12)
	binary.BigEndian.PutUint64(b[0:8], 64)
	binary.BigEndian.PutUint64(b[8:16], 3)
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("ragged body must be rejected")
	}
	// hashes beyond int range must not wrap into the accepted window.
	b = New(10, 0.01).Marshal()
	binary.BigEndian.PutUint64(b[8:16], 1<<63+3)
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("hashes=2^63+3 must be rejected")
	}
}

// TestProbeMatchesAddress: hashing once changes nothing. For random
// addresses NewProbe carries exactly the base hashes the streaming
// SHA-256 derivation gave, and on filters of every geometry the probe
// form answers what the address form answers, with no allocation.
func TestProbeMatchesAddress(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	addrs := make([]types.Address, 4000)
	for i := range addrs {
		rng.Read(addrs[i][:])
		h1, h2 := baseHashes(addrs[i])
		if p := NewProbe(addrs[i]); p != (Probe{h1, h2}) {
			t.Fatalf("address %v: probe %+v, reference hashes (%d, %d)", addrs[i], p, h1, h2)
		}
	}
	for _, geo := range []struct {
		n  int
		fp float64
	}{{1, 0.5}, {10, 0.01}, {3000, 0.01}, {100, 0.6}} {
		f := New(geo.n, geo.fp)
		for _, a := range addrs[:geo.n] {
			f.Add(a)
		}
		for _, a := range addrs {
			if f.MayContain(a) != f.MayContainProbe(NewProbe(a)) {
				t.Fatalf("n=%d fp=%v address %v: address and probe forms disagree", geo.n, geo.fp, a)
			}
		}
	}
	f := New(100, 0.01)
	if allocs := testing.AllocsPerRun(100, func() { f.Add(addrs[0]); f.MayContain(addrs[1]) }); allocs != 0 {
		t.Fatalf("Add + MayContain allocate %v times", allocs)
	}
}
