// Package bloom implements the address Bloom filters of COLE (§4): one per
// run, and one per in-memory L0 group.
//
// Filters are built over state *addresses*, not compound keys, so a single
// membership probe answers "does this run contain any version of addr?"
// (the paper's first design consideration). False positives are tolerated:
// a hit falls through to the normal run search. A run filter's digest is
// folded into the run digest (§4), so Hstate binds its bytes, and its bit
// positions come from SHA-256 of the address (NewProbe). An L0 filter is a
// read accelerator that never leaves memory and no digest binds, so its
// positions come from a cheap 64-bit mix instead (MixProbe). A filter is
// only ever probed with the Probe constructor it was filled with.
// Provenance proofs carry a run filter's digest but never the filter, and
// prove absence with spans.
package bloom

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"cole/internal/types"
)

// Filter is a classic Bloom filter using Kirsch–Mitzenmacher double hashing
// over a SHA-256 base digest.
//
// The filter lives in its wire layout: one byte slice holding the 24-byte
// header (nbits, hashes, entries — big-endian uint64 each) followed by
// the bit array as big-endian 64-bit words. Bit pos is bit pos%64 of
// word pos/64, i.e. bit pos%8 of body byte (pos/8)^7. Marshal is
// therefore a copy and Unmarshal a validate-and-wrap; nothing is ever
// re-encoded.
type Filter struct {
	data   []byte // header + words, exactly what Marshal returns
	nbits  uint64 // data[0:8], cached for the probe loop
	hashes int    // data[8:16], cached for the probe loop
}

const (
	headerSize = 24
	entriesOff = 16
)

// New creates a filter sized for n expected entries at the given target
// false-positive rate. n and fpRate are clamped to sane minimums.
func New(n int, fpRate float64) *Filter {
	if n < 1 {
		n = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	// Optimal sizing: m = -n ln p / (ln 2)^2, k = m/n ln 2.
	m := uint64(math.Ceil(-float64(n) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	data := make([]byte, headerSize+8*((m+63)/64))
	binary.BigEndian.PutUint64(data[0:8], m)
	binary.BigEndian.PutUint64(data[8:16], uint64(k))
	return &Filter{data: data, nbits: m, hashes: k}
}

// Probe is an address reduced to the two base hashes every filter's
// double hashing starts from. A point lookup probes every L0 group and run
// of the store for the same address, so it computes each kind of Probe
// once and hands it down; it lives on the caller's stack and nothing is
// allocated.
type Probe struct{ h1, h2 uint64 }

// NewProbe hashes addr for a run filter: the base hashes are the first 16
// bytes of SHA-256(addr).
func NewProbe(addr types.Address) Probe {
	h := sha256.Sum256(addr[:])
	return Probe{binary.BigEndian.Uint64(h[0:8]), binary.BigEndian.Uint64(h[8:16])}
}

// MixProbe hashes addr for an L0 filter with a fixed-constant,
// non-cryptographic 64-bit mix of the address's three words (8 + 8 + 4
// bytes): each word in turn is xored into the state, which is multiplied
// by a constant into 128 bits and folded back to 64. h2 is one more fold
// of h1, forced odd so the double-hashing stride is never zero. It is
// deterministic across processes and a small fraction of NewProbe's cost;
// nothing it produces is persisted or digested.
func MixProbe(addr types.Address) Probe {
	h := mix(binary.LittleEndian.Uint64(addr[0:8])^mixK0, mixK1)
	h = mix(h^binary.LittleEndian.Uint64(addr[8:16]), mixK2)
	h = mix(h^uint64(binary.LittleEndian.Uint32(addr[16:20])), mixK3)
	return Probe{h, mix(h^mixK0, mixK2) | 1}
}

// The mix's constants: odd 64-bit words with well-spread bits (the
// wyhash secrets).
const (
	mixK0 = 0xa0761d6478bd642f
	mixK1 = 0xe7037ed1a0b428db
	mixK2 = 0x8ebc6af09c88c6e3
	mixK3 = 0x589965cc75374cc3
)

// mix multiplies a and b into 128 bits and folds the halves together.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

func (f *Filter) addEntries(n uint64) {
	hdr := f.data[entriesOff:headerSize]
	binary.BigEndian.PutUint64(hdr, binary.BigEndian.Uint64(hdr)+n)
}

// Add inserts an address into a run filter (NewProbe).
func (f *Filter) Add(addr types.Address) { f.AddProbe(NewProbe(addr)) }

// AddProbe inserts an address hashed by NewProbe or MixProbe; the filter
// must then be probed with the same constructor.
func (f *Filter) AddProbe(p Probe) {
	body := f.data[headerSize:]
	for i := 0; i < f.hashes; i++ {
		pos := (p.h1 + uint64(i)*p.h2) % f.nbits
		body[(pos>>3)^7] |= 1 << (pos & 7)
	}
	f.addEntries(1)
}

// AddRepeat records another insertion of the address most recently passed
// to Add, without re-hashing it: the bit pattern is idempotent, so only
// the entry counter advances and the marshaled filter stays byte-for-byte
// what repeated Add calls would produce. Run builders streaming sorted
// compound keys use it for the consecutive versions of one address —
// which is most of a merge's entries under COLE's multi-version
// workloads.
func (f *Filter) AddRepeat() { f.addEntries(1) }

// MayContain reports whether addr may be present in a run filter (false
// means definitely absent).
func (f *Filter) MayContain(addr types.Address) bool { return f.MayContainProbe(NewProbe(addr)) }

// MayContainProbe is MayContain for an address hashed once by the
// filter's Probe constructor.
func (f *Filter) MayContainProbe(p Probe) bool {
	body := f.data[headerSize:]
	for i := 0; i < f.hashes; i++ {
		pos := (p.h1 + uint64(i)*p.h2) % f.nbits
		if body[(pos>>3)^7]&(1<<(pos&7)) == 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the filter. The engine clones the
// live L0 filter into each published read view so lock-free readers never
// probe a bit array that Add is concurrently mutating.
func (f *Filter) Clone() *Filter {
	return &Filter{data: append([]byte(nil), f.data...), nbits: f.nbits, hashes: f.hashes}
}

// Entries returns the number of insertions.
func (f *Filter) Entries() uint64 { return binary.BigEndian.Uint64(f.data[entriesOff:headerSize]) }

// Digest hashes the filter contents; it is combined with the run's Merkle
// root into the run digest that Hstate binds.
func (f *Filter) Digest() types.Hash { return types.HashData(f.data) }

// Marshal serializes the filter (stored in the run's metadata file). The
// result is a caller-owned copy: it never aliases the live filter, so a
// caller may keep or mutate it freely.
func (f *Filter) Marshal() []byte { return append([]byte(nil), f.data...) }

// Unmarshal wraps a filter serialized by Marshal after validating its
// header against the body length. The returned filter ALIASES b — no
// bytes are decoded or copied — so it is for read-only use (MayContain,
// Entries, Digest, Marshal, Clone) for as long as b is left unmodified;
// Clone it before calling Add.
func Unmarshal(b []byte) (*Filter, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("bloom: truncated header: %d bytes", len(b))
	}
	nbits := binary.BigEndian.Uint64(b[0:8])
	hashes := binary.BigEndian.Uint64(b[8:16])
	if hashes < 1 || hashes > 64 || nbits == 0 {
		return nil, fmt.Errorf("bloom: corrupt header: nbits=%d hashes=%d", nbits, hashes)
	}
	// (nbits-1)/64+1 is ⌈nbits/64⌉ without the wrap nbits+63 has near
	// 2^64; compared in uint64 so a header claiming more words than any
	// slice can hold is rejected by the length check, not truncated by it.
	body := uint64(len(b) - headerSize)
	if words := (nbits-1)/64 + 1; body%8 != 0 || body/8 != words {
		return nil, fmt.Errorf("bloom: body length %d, want %d words for nbits=%d", body, words, nbits)
	}
	return &Filter{data: b, nbits: nbits, hashes: int(hashes)}, nil
}
