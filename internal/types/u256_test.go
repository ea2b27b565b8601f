package types

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestU256FromKeyMatchesPaperFormula(t *testing.T) {
	// §3.2: big integer = binary(addr) · 2^64 + blk.
	k := CompoundKey{Addr: AddressFromString("u"), Blk: 0xDEADBEEF}
	u := U256FromKey(k)

	want := new(big.Int).SetBytes(k.Addr[:])
	want.Lsh(want, 64)
	want.Or(want, new(big.Int).SetUint64(k.Blk))

	if u.Big().Cmp(want) != 0 {
		t.Fatalf("U256FromKey = %s, want %s", u.Big(), want)
	}
}

func TestU256KeyFitsIn224Bits(t *testing.T) {
	var k CompoundKey
	for i := range k.Addr {
		k.Addr[i] = 0xFF
	}
	k.Blk = ^uint64(0)
	if bl := U256FromKey(k).BitLen(); bl != 224 {
		t.Fatalf("max key bit length = %d, want 224", bl)
	}
}

func TestU256SubAddRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a := U256FromKey(randKey(r))
		b := U256FromKey(randKey(r))
		if a.Cmp(b) < 0 {
			a, b = b, a
		}
		d := a.Sub(b)
		if d.Add(b) != a {
			t.Fatalf("(a-b)+b != a for a=%s b=%s", a.Big(), b.Big())
		}
	}
}

func TestU256SubMatchesBig(t *testing.T) {
	f := func(a1, a2 [AddressSize]byte, b1, b2 uint64) bool {
		x := U256FromKey(CompoundKey{Addr: a1, Blk: b1})
		y := U256FromKey(CompoundKey{Addr: a2, Blk: b2})
		if x.Cmp(y) < 0 {
			x, y = y, x
		}
		want := new(big.Int).Sub(x.Big(), y.Big())
		return x.Sub(y).Big().Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestU256CmpMatchesBig(t *testing.T) {
	f := func(a1, a2 [AddressSize]byte, b1, b2 uint64) bool {
		x := U256FromKey(CompoundKey{Addr: a1, Blk: b1})
		y := U256FromKey(CompoundKey{Addr: a2, Blk: b2})
		return x.Cmp(y) == x.Big().Cmp(y.Big())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestU256Float64SmallValuesExact(t *testing.T) {
	// Same-address deltas are ≤ 2^53 in realistic chains and must convert
	// exactly: model x coordinates are these deltas.
	a := AddressFromString("f")
	base := CompoundKey{Addr: a, Blk: 100}
	for _, d := range []uint64{0, 1, 2, 1000, 1 << 30, 1 << 52} {
		k := CompoundKey{Addr: a, Blk: 100 + d}
		got := KeyDeltaFloat(k, base)
		if got != float64(d) {
			t.Fatalf("delta %d converted to %g", d, got)
		}
	}
}

func TestU256Float64MatchesBig(t *testing.T) {
	f := func(a1 [AddressSize]byte, b1 uint64) bool {
		u := U256FromKey(CompoundKey{Addr: a1, Blk: b1})
		want, _ := new(big.Float).SetInt(u.Big()).Float64()
		got := u.Float64()
		if want == 0 {
			return got == 0
		}
		// The limb-wise conversion may differ from the correctly rounded
		// big.Float result by a few ulps; the PLA builder tolerates this by
		// verifying with the same conversion it will use at query time.
		rel := (got - want) / want
		if rel < 0 {
			rel = -rel
		}
		return rel < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestU256IsZeroAndBitLen(t *testing.T) {
	var z U256
	if !z.IsZero() || z.BitLen() != 0 {
		t.Fatal("zero value must report IsZero and BitLen 0")
	}
	one := U256{1, 0, 0, 0}
	if one.IsZero() || one.BitLen() != 1 {
		t.Fatal("one must have bit length 1")
	}
	high := U256{0, 0, 0, 1}
	if high.BitLen() != 193 {
		t.Fatalf("2^192 bit length = %d, want 193", high.BitLen())
	}
}

func TestKeyDeltaFloatMonotone(t *testing.T) {
	// For sorted keys k1 ≤ k2 ≤ k3 with common anchor, deltas must be
	// non-decreasing even through float64 rounding (rounding is monotone).
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		ks := []CompoundKey{randKey(r), randKey(r), randKey(r)}
		for a := 0; a < 3; a++ {
			for b := a + 1; b < 3; b++ {
				if ks[b].Less(ks[a]) {
					ks[a], ks[b] = ks[b], ks[a]
				}
			}
		}
		anchor := ks[0]
		d1 := KeyDeltaFloat(ks[0], anchor)
		d2 := KeyDeltaFloat(ks[1], anchor)
		d3 := KeyDeltaFloat(ks[2], anchor)
		if d1 > d2 || d2 > d3 {
			t.Fatalf("deltas not monotone: %g %g %g", d1, d2, d3)
		}
	}
}

// keyDeltaRef is the definition KeyDeltaFloat reproduces bit for bit.
func keyDeltaRef(k, kmin CompoundKey) float64 {
	return U256FromKey(k).Sub(U256FromKey(kmin)).Float64()
}

// keyFromU256 inverts U256FromKey on the low 224 bits.
func keyFromU256(u U256) CompoundKey {
	var pad [24]byte
	binary.BigEndian.PutUint64(pad[0:8], u[3])
	binary.BigEndian.PutUint64(pad[8:16], u[2])
	binary.BigEndian.PutUint64(pad[16:24], u[1])
	k := CompoundKey{Blk: u[0]}
	copy(k.Addr[:], pad[4:])
	return k
}

func checkKeyDelta(t *testing.T, k, kmin CompoundKey) {
	t.Helper()
	got, want := KeyDeltaFloat(k, kmin), keyDeltaRef(k, kmin)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("KeyDeltaFloat(%x‖%d, %x‖%d) = %v (%#x), U256 path %v (%#x)",
			k.Addr[:], k.Blk, kmin.Addr[:], kmin.Blk, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestKeyDeltaFloatMatchesU256 compares the limb subtraction against the
// U256 round trip by bit pattern on 2^20 random pairs, each checked in
// both orders (a pair out of order wraps the same way on both paths).
// The pairs rotate through five shapes: independent keys, keys sharing a
// random-length prefix of their 28-byte encoding, keys whose difference
// borrows across a chosen limb boundary (and every boundary below it),
// keys of one address, equal keys included, and differences that sit on
// a float64 rounding tie (tieDelta). Random keys alone almost never
// separate two conversions that differ only in how they round.
func TestKeyDeltaFloatMatchesU256(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for i := 0; i < 1<<20; i++ {
		k, kmin := randKey(r), randKey(r)
		switch i % 5 {
		case 1:
			var kb, mb [CompoundKeySize]byte
			k.PutBytes(kb[:])
			kmin.PutBytes(mb[:])
			copy(mb[:], kb[:r.Intn(CompoundKeySize+1)])
			kmin, _ = DecodeCompoundKey(mb[:])
		case 2:
			u := U256FromKey(k)
			v := u
			j := 1 + r.Intn(3)
			for l := 0; l < j; l++ {
				u[l] = uint64(r.Intn(1 << 16))
				v[l] = ^uint64(r.Intn(1 << 16))
			}
			if u[j] == 0 {
				u[j] = 1
			}
			v[j] = u[j] - 1
			k, kmin = keyFromU256(u), keyFromU256(v)
		case 3:
			kmin.Addr = k.Addr
			if r.Intn(2) == 0 {
				kmin = k
			}
		case 4:
			u := U256FromKey(kmin)
			u[3] &= 1<<31 - 1 // room to add a delta below 2^223 without wrapping
			kmin = keyFromU256(u)
			k = keyFromU256(u.Add(tieDelta(r)))
		}
		checkKeyDelta(t, k, kmin)
		checkKeyDelta(t, kmin, k)
	}
}

// tieDelta returns a difference below 2^223 whose top 54 significant bits
// end in a 1 that is exactly half a float64 ulp, followed by a random run
// of zeros and then, half the time, random low bits. Rounding it to the
// nearest even, with or without the low bits, is where conversions part.
func tieDelta(r *rand.Rand) U256 {
	bitLen := 54 + r.Intn(223-54+1)
	d := new(big.Int).SetUint64(1<<52 | uint64(r.Int63n(1<<52)))
	d.Lsh(d, 1).SetBit(d, 0, 1)
	d.Lsh(d, uint(bitLen-54))
	if gap := r.Intn(bitLen - 53); gap < bitLen-54 && r.Intn(2) == 0 {
		low := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(bitLen-54-gap)))
		d.Or(d, low)
	}
	var u U256
	for i := range u {
		u[i] = new(big.Int).Rsh(d, uint(64*i)).Uint64()
	}
	return u
}

// FuzzKeyDeltaFloat holds KeyDeltaFloat to the U256 path on arbitrary
// key pairs: go test -run '^$' -fuzz=FuzzKeyDeltaFloat ./internal/types
func FuzzKeyDeltaFloat(f *testing.F) {
	ones := bytes.Repeat([]byte{0xFF}, AddressSize)
	f.Add(ones, uint64(7), ones, uint64(7))
	f.Add([]byte{0, 0, 0, 1}, uint64(0), ones[:4], ^uint64(0))
	f.Add(append(make([]byte, 12), 1), uint64(0), append(make([]byte, 12), 0, 0xFF), ^uint64(0))
	// Limb 1 of the difference is 2^53 + 1, a rounding tie, and limb 0 is 1.
	f.Add(append(make([]byte, 12), 0, 0x20, 0, 0, 0, 0, 0, 1), uint64(1), []byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, a []byte, blkA uint64, b []byte, blkB uint64) {
		k, kmin := CompoundKey{Blk: blkA}, CompoundKey{Blk: blkB}
		copy(k.Addr[:], a)
		copy(kmin.Addr[:], b)
		checkKeyDelta(t, k, kmin)
	})
}
