package types

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddressFromBytesExactWidth(t *testing.T) {
	raw := make([]byte, AddressSize)
	for i := range raw {
		raw[i] = byte(i + 1)
	}
	a := AddressFromBytes(raw)
	if !bytes.Equal(a[:], raw) {
		t.Fatalf("exact-width input must be copied verbatim, got %x", a)
	}
}

func TestAddressFromBytesHashesOddWidth(t *testing.T) {
	a := AddressFromBytes([]byte("alice"))
	b := AddressFromBytes([]byte("alice"))
	c := AddressFromBytes([]byte("bob"))
	if a != b {
		t.Fatal("address derivation must be deterministic")
	}
	if a == c {
		t.Fatal("distinct identifiers must map to distinct addresses")
	}
}

func TestAddressFromUint64Distinct(t *testing.T) {
	seen := make(map[Address]bool)
	for i := uint64(0); i < 1000; i++ {
		a := AddressFromUint64(i)
		if seen[a] {
			t.Fatalf("collision at %d", i)
		}
		seen[a] = true
	}
}

func TestValueRoundTripUint64(t *testing.T) {
	for _, x := range []uint64{0, 1, 255, 1 << 40, ^uint64(0)} {
		if got := ValueFromUint64(x).Uint64(); got != x {
			t.Fatalf("round trip %d -> %d", x, got)
		}
	}
}

func TestValueFromBytesShortPads(t *testing.T) {
	v := ValueFromBytes([]byte{0xAB})
	if v[0] != 0xAB {
		t.Fatal("short input must be copied into prefix")
	}
	for _, b := range v[1:] {
		if b != 0 {
			t.Fatal("padding must be zero")
		}
	}
}

func TestValueFromBytesLongHashes(t *testing.T) {
	long := make([]byte, 100)
	v1 := ValueFromBytes(long)
	long[99] = 1
	v2 := ValueFromBytes(long)
	if v1 == v2 {
		t.Fatal("oversized inputs must be hashed, not truncated")
	}
}

func TestCompoundKeyBytesOrderMatchesCmp(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		k1 := randKey(r)
		k2 := randKey(r)
		byteOrder := bytes.Compare(k1.Bytes(), k2.Bytes())
		if byteOrder != k1.Cmp(k2) {
			t.Fatalf("byte order %d != Cmp %d for %v vs %v", byteOrder, k1.Cmp(k2), k1, k2)
		}
	}
}

// cmpShapes returns key pairs (lo, hi), lo < hi, that differ only where a
// word-wise Cmp splits the key. Random addresses almost always differ in
// their first 8 bytes and never reach the later words.
//   - One address byte at the first and last position of each word
//     (bytes 0, 7, 8, 15, 16, 19), with the blocks ordered the other way.
//   - Two address bytes in neighbouring words pulling opposite ways,
//     which only comparing the words in order gets right.
//   - Equal addresses whose blocks differ, including 0 and MaxBlock.
//
// The base bytes are 0x7f, so a raised byte crosses the sign bit.
func cmpShapes() [][2]CompoundKey {
	var base Address
	for i := range base {
		base[i] = 0x7f
	}
	var shapes [][2]CompoundKey
	for _, pos := range []int{0, 7, 8, 15, 16, 19} {
		hi := base
		hi[pos]++
		shapes = append(shapes, [2]CompoundKey{{Addr: base, Blk: MaxBlock}, {Addr: hi, Blk: 0}})
	}
	for _, pair := range [][2]int{{7, 8}, {15, 16}, {8, 16}, {0, 19}, {15, 19}} {
		hi := base
		hi[pair[0]]++
		hi[pair[1]]--
		shapes = append(shapes, [2]CompoundKey{{Addr: base, Blk: 1}, {Addr: hi, Blk: 1}})
	}
	for _, blks := range [][2]uint64{{0, 1}, {0, MaxBlock}, {MaxBlock - 1, MaxBlock}, {1<<32 - 1, 1 << 32}, {1<<63 - 1, 1 << 63}} {
		shapes = append(shapes, [2]CompoundKey{{Addr: base, Blk: blks[0]}, {Addr: base, Blk: blks[1]}})
	}
	return shapes
}

func TestCompoundKeyCmpWords(t *testing.T) {
	for _, s := range cmpShapes() {
		lo, hi := s[0], s[1]
		if bytes.Compare(lo.Bytes(), hi.Bytes()) >= 0 {
			t.Fatalf("bad shape %x/%d vs %x/%d", lo.Addr, lo.Blk, hi.Addr, hi.Blk)
		}
		if lo.Cmp(hi) != -1 || hi.Cmp(lo) != 1 || lo.Cmp(lo) != 0 || hi.Cmp(hi) != 0 {
			t.Errorf("Cmp(%x/%d, %x/%d) = %d, reverse %d; want -1, 1",
				lo.Addr, lo.Blk, hi.Addr, hi.Blk, lo.Cmp(hi), hi.Cmp(lo))
		}
		if !lo.Less(hi) || hi.Less(lo) {
			t.Errorf("Less disagrees with Cmp for %x/%d vs %x/%d", lo.Addr, lo.Blk, hi.Addr, hi.Blk)
		}
	}
}

// FuzzCompoundKeyCmp: Cmp is the byte order of the key encodings.
func FuzzCompoundKeyCmp(f *testing.F) {
	for _, s := range cmpShapes() {
		f.Add(s[0].Addr[:], s[0].Blk, s[1].Addr[:], s[1].Blk)
	}
	f.Fuzz(func(t *testing.T, a []byte, blkA uint64, b []byte, blkB uint64) {
		k1, k2 := CompoundKey{Blk: blkA}, CompoundKey{Blk: blkB}
		copy(k1.Addr[:], a)
		copy(k2.Addr[:], b)
		want := bytes.Compare(k1.Bytes(), k2.Bytes())
		if got := k1.Cmp(k2); got != want {
			t.Fatalf("Cmp(%x/%d, %x/%d) = %d, bytes.Compare = %d", k1.Addr, k1.Blk, k2.Addr, k2.Blk, got, want)
		}
		if got := k2.Cmp(k1); got != -want {
			t.Fatalf("reverse Cmp = %d, want %d", got, -want)
		}
	})
}

func TestCompoundKeyCmpSameAddrOrdersByBlock(t *testing.T) {
	a := AddressFromString("x")
	lo := CompoundKey{Addr: a, Blk: 5}
	hi := CompoundKey{Addr: a, Blk: 6}
	if !lo.Less(hi) || hi.Less(lo) || lo.Cmp(lo) != 0 {
		t.Fatal("block height must break ties")
	}
}

func TestCompoundKeyEncodeDecode(t *testing.T) {
	k := CompoundKey{Addr: AddressFromString("k"), Blk: 123456789}
	got, err := DecodeCompoundKey(k.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got != k {
		t.Fatalf("round trip mismatch: %v vs %v", got, k)
	}
	if _, err := DecodeCompoundKey(make([]byte, 3)); err == nil {
		t.Fatal("short buffer must error")
	}
}

func TestEntryEncodeDecode(t *testing.T) {
	e := Entry{Key: CompoundKey{Addr: AddressFromString("e"), Blk: 42}, Value: ValueFromUint64(7)}
	buf := make([]byte, EntrySize)
	EncodeEntry(buf, e)
	got, err := DecodeEntry(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, e)
	}
	if _, err := DecodeEntry(buf[:10]); err == nil {
		t.Fatal("short buffer must error")
	}
}

func TestProvBoundaryKeys(t *testing.T) {
	a := AddressFromString("p")
	if k := ProvLowerKey(a, 10); k.Blk != 9 {
		t.Fatalf("lower key blk = %d, want 9", k.Blk)
	}
	if k := ProvLowerKey(a, 0); k.Blk != 0 {
		t.Fatalf("lower key must saturate at 0, got %d", k.Blk)
	}
	if k := ProvUpperKey(a, 10); k.Blk != 11 {
		t.Fatalf("upper key blk = %d, want 11", k.Blk)
	}
	if k := ProvUpperKey(a, MaxBlock); k.Blk != MaxBlock {
		t.Fatal("upper key must saturate at MaxBlock")
	}
}

func TestMaxKeyForIsUpperBound(t *testing.T) {
	a := AddressFromString("m")
	max := MaxKeyFor(a)
	for blk := uint64(0); blk < 100; blk += 7 {
		if max.Less(CompoundKey{Addr: a, Blk: blk}) {
			t.Fatal("MaxKeyFor must dominate every version of the address")
		}
	}
}

func TestHashEntryDistinct(t *testing.T) {
	e1 := Entry{Key: CompoundKey{Addr: AddressFromString("h"), Blk: 1}, Value: ValueFromUint64(1)}
	e2 := e1
	e2.Value = ValueFromUint64(2)
	if HashEntry(e1) == HashEntry(e2) {
		t.Fatal("different values must hash differently")
	}
	e3 := e1
	e3.Key.Blk = 2
	if HashEntry(e1) == HashEntry(e3) {
		t.Fatal("different versions must hash differently")
	}
}

func TestHashConcatMatchesHashData(t *testing.T) {
	h1 := HashData([]byte("a"))
	h2 := HashData([]byte("b"))
	want := HashData(h1[:], h2[:])
	if HashConcat(h1, h2) != want {
		t.Fatal("HashConcat must equal HashData over concatenated digests")
	}
}

func TestHashDataEmpty(t *testing.T) {
	if HashData() == ZeroHash {
		t.Fatal("sha256 of empty input is not the zero hash")
	}
}

func randKey(r *rand.Rand) CompoundKey {
	var k CompoundKey
	r.Read(k.Addr[:])
	k.Blk = r.Uint64()
	return k
}

func TestCompoundKeyOrderProperty(t *testing.T) {
	f := func(a1, a2 [AddressSize]byte, b1, b2 uint64) bool {
		k1 := CompoundKey{Addr: a1, Blk: b1}
		k2 := CompoundKey{Addr: a2, Blk: b2}
		// Byte order, Cmp and U256 order must all agree.
		c := k1.Cmp(k2)
		return bytes.Compare(k1.Bytes(), k2.Bytes()) == c &&
			U256FromKey(k1).Cmp(U256FromKey(k2)) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
