package bloom

import (
	"testing"
	"testing/quick"

	"cole/internal/types"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1000, 0.01)
	for i := uint64(0); i < 1000; i++ {
		f.Add(types.AddressFromUint64(i))
	}
	for i := uint64(0); i < 1000; i++ {
		if !f.MayContain(types.AddressFromUint64(i)) {
			t.Fatalf("false negative for %d", i)
		}
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n = 5000
	f := New(n, 0.01)
	for i := uint64(0); i < n; i++ {
		f.Add(types.AddressFromUint64(i))
	}
	fp := 0
	const probes = 20000
	for i := uint64(n); i < n+probes; i++ {
		if f.MayContain(types.AddressFromUint64(i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.05 {
		t.Fatalf("false positive rate %.4f far above 1%% target", rate)
	}
}

func TestEmptyFilterRejectsEverything(t *testing.T) {
	f := New(100, 0.01)
	for i := uint64(0); i < 100; i++ {
		if f.MayContain(types.AddressFromUint64(i)) {
			t.Fatal("empty filter must contain nothing")
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := New(500, 0.02)
	for i := uint64(0); i < 500; i++ {
		f.Add(types.AddressFromUint64(i * 3))
	}
	g, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if g.Entries() != f.Entries() || g.Bits() != f.Bits() {
		t.Fatal("metadata lost in round trip")
	}
	for i := uint64(0); i < 500; i++ {
		if !g.MayContain(types.AddressFromUint64(i * 3)) {
			t.Fatalf("false negative after round trip at %d", i)
		}
	}
	if g.Digest() != f.Digest() {
		t.Fatal("digest changed across round trip")
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil input must error")
	}
	if _, err := Unmarshal(make([]byte, 10)); err == nil {
		t.Fatal("short input must error")
	}
	f := New(10, 0.01)
	b := f.Marshal()
	if _, err := Unmarshal(b[:len(b)-1]); err == nil {
		t.Fatal("truncated body must error")
	}
	b[0] = 0xFF // absurd nbits with mismatched body
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("corrupt header must error")
	}
}

func TestDigestChangesWithContent(t *testing.T) {
	f1 := New(100, 0.01)
	f2 := New(100, 0.01)
	f1.Add(types.AddressFromUint64(1))
	f2.Add(types.AddressFromUint64(2))
	if f1.Digest() == f2.Digest() {
		t.Fatal("different contents must yield different digests")
	}
}

func TestTinyAndDegenerateSizing(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		f := New(n, 0.001)
		a := types.AddressFromUint64(42)
		f.Add(a)
		if !f.MayContain(a) {
			t.Fatalf("false negative with n=%d", n)
		}
	}
	// Degenerate fp rates fall back to defaults rather than panicking.
	for _, p := range []float64{0, 1, -3, 2} {
		f := New(10, p)
		f.Add(types.AddressFromUint64(1))
		if !f.MayContain(types.AddressFromUint64(1)) {
			t.Fatalf("false negative with fp=%g", p)
		}
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	f := New(200, 0.01)
	inserted := make(map[types.Address]bool)
	check := func(raw [types.AddressSize]byte) bool {
		a := types.Address(raw)
		f.Add(a)
		inserted[a] = true
		for x := range inserted {
			if !f.MayContain(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatedFPRate(t *testing.T) {
	f := New(1000, 0.01)
	if f.EstimatedFPRate() != 0 {
		t.Fatal("empty filter estimate must be 0")
	}
	for i := uint64(0); i < 1000; i++ {
		f.Add(types.AddressFromUint64(i))
	}
	if est := f.EstimatedFPRate(); est < 0.001 || est > 0.05 {
		t.Fatalf("estimate %.4f implausible for design point 1%%", est)
	}
}

// TestMixProbeStrideIsOdd: MixProbe never hands double hashing a zero
// (or any even) stride.
func TestMixProbeStrideIsOdd(t *testing.T) {
	for i := uint64(0); i < 10000; i++ {
		if p := MixProbe(types.AddressFromUint64(i)); p.h2&1 == 0 {
			t.Fatalf("address %d: even h2 %#x", i, p.h2)
		}
	}
	if p := MixProbe(types.Address{}); p.h2&1 == 0 {
		t.Fatalf("zero address: even h2 %#x", p.h2)
	}
}
