package bloom_test

import (
	"encoding/binary"
	"testing"

	"cole/internal/bloom"
	"cole/internal/run"
	"cole/internal/types"
)

// addressSets are the address shapes the probe tests run over: the
// hashed addresses every workload generates, and raw counters, whose
// addresses differ only in a few low bytes of one word each — the shape a
// weak mix would collide on.
var addressSets = []struct {
	name string
	addr func(i uint64) types.Address
}{
	{"hashed", types.AddressFromUint64},
	{"counter-last-word", func(i uint64) (a types.Address) {
		binary.BigEndian.PutUint32(a[16:20], uint32(i))
		return a
	}},
	{"counter-first-word", func(i uint64) (a types.Address) {
		binary.LittleEndian.PutUint64(a[0:8], i)
		return a
	}},
}

// TestMixProbeNoFalseNegatives fills a filter with 100 000 addresses
// through MixProbe and finds every one of them again.
func TestMixProbeNoFalseNegatives(t *testing.T) {
	const n = 100_000
	for _, set := range addressSets {
		f := bloom.New(n, run.BloomFP)
		for i := uint64(0); i < n; i++ {
			f.AddProbe(bloom.MixProbe(set.addr(i)))
		}
		for i := uint64(0); i < n; i++ {
			if !f.MayContainProbe(bloom.MixProbe(set.addr(i))) {
				t.Fatalf("%s: false negative for address %d", set.name, i)
			}
		}
	}
}

// fpRate fills a filter at the L0 geometry (one MemCapacity's worth of
// addresses at the run target) with addresses 0..inserts-1 and returns
// the share of absent addresses inserts..inserts+probes-1 it admits.
func fpRate(addr func(uint64) types.Address, probe func(types.Address) bloom.Probe) float64 {
	const inserts, probes = 4096, 200_000
	f := bloom.New(inserts, run.BloomFP)
	for i := uint64(0); i < inserts; i++ {
		f.AddProbe(probe(addr(i)))
	}
	fp := 0
	for i := uint64(inserts); i < inserts+probes; i++ {
		if f.MayContainProbe(probe(addr(i))) {
			fp++
		}
	}
	return float64(fp) / probes
}

// TestMixProbeFalsePositiveRate holds the L0 filter's cheap probe to the
// SHA-256 probe's false-positive rate on the same addresses, within 1.5×.
func TestMixProbeFalsePositiveRate(t *testing.T) {
	for _, set := range addressSets {
		mix, sha := fpRate(set.addr, bloom.MixProbe), fpRate(set.addr, bloom.NewProbe)
		t.Logf("%s: false-positive rate %.4f with MixProbe, %.4f with NewProbe", set.name, mix, sha)
		if mix > 1.5*sha {
			t.Errorf("%s: MixProbe admits %.4f of absent addresses, NewProbe %.4f: above 1.5×", set.name, mix, sha)
		}
	}
}

var sinkProbe bloom.Probe

// benchAddrs are the addresses the probe benchmarks cycle through, a
// power of two of them so the loop indexes with a mask, not a division.
func benchAddrs() *[256]types.Address {
	addrs := new([256]types.Address)
	for i := range addrs {
		addrs[i] = types.AddressFromUint64(uint64(i))
	}
	return addrs
}

// BenchmarkNewProbe times the SHA-256 probe every run filter is built and
// searched with.
func BenchmarkNewProbe(b *testing.B) {
	addrs := benchAddrs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkProbe = bloom.NewProbe(addrs[i&255])
	}
}

// BenchmarkMixProbe times the 64-bit mix the L0 filters use instead.
func BenchmarkMixProbe(b *testing.B) {
	addrs := benchAddrs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkProbe = bloom.MixProbe(addrs[i&255])
	}
}
