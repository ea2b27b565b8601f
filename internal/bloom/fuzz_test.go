package bloom_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"cole/internal/bloom"
	"cole/internal/run"
	"cole/internal/types"
)

// builtRunFilter returns the Bloom bytes of a run built the way the
// engine builds one (several versions per address, so the AddRepeat path
// contributes) — the bytes run.Open decodes from a run's .met file.
func builtRunFilter(f *testing.F) []byte {
	var entries []types.Entry
	for a := uint64(0); a < 300; a++ {
		for v := uint64(0); v <= a%3; v++ {
			entries = append(entries, types.Entry{
				Key:   types.CompoundKey{Addr: types.AddressFromUint64(a), Blk: 1 + 4*v},
				Value: types.ValueFromUint64(a*10 + v),
			})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key.Less(entries[j].Key) })
	r, err := run.Build(f.TempDir(), 1, int64(len(entries)), run.Params{Fanout: 4}, run.NewSliceIterator(entries))
	if err != nil {
		f.Fatal(err)
	}
	defer r.Close()
	return r.BloomBytes()
}

// FuzzUnmarshal feeds arbitrary bytes to the decoder run.Open runs on
// the filter bytes of a .met file read from disk, which damage may have
// changed. Whatever it accepts must be canonical (Marshal returns the
// input) and safe to probe and clone.
func FuzzUnmarshal(f *testing.F) {
	overflow := make([]byte, 24) // nbits=2^64-1: the word count wraps to 0
	binary.BigEndian.PutUint64(overflow[0:8], math.MaxUint64)
	binary.BigEndian.PutUint64(overflow[8:16], 3)
	f.Add(overflow, uint64(0))
	f.Add(builtRunFilter(f), uint64(7))
	f.Add(bloom.New(1, 0.5).Marshal(), uint64(1))
	f.Add([]byte{}, uint64(0))

	f.Fuzz(func(t *testing.T, b []byte, probe uint64) {
		in := append([]byte(nil), b...)
		flt, err := bloom.Unmarshal(b)
		if err != nil {
			return
		}
		if !bytes.Equal(flt.Marshal(), in) {
			t.Fatal("accepted input does not round-trip")
		}
		addr := types.AddressFromUint64(probe)
		flt.MayContain(addr)
		flt.EstimatedFPRate()
		if flt.Digest() != types.HashData(in) {
			t.Fatal("digest is not the hash of the wire bytes")
		}
		c := flt.Clone()
		c.Add(addr)
		if !c.MayContain(addr) {
			t.Fatal("false negative on a cloned filter")
		}
		if !bytes.Equal(b, in) {
			t.Fatal("writing to a clone reached the wrapped input")
		}
	})
}
