package types

import (
	"encoding/binary"
	"math/bits"
)

// U256 is an unsigned 256-bit integer in four little-endian uint64 limbs.
// Compound keys occupy only the low 224 bits (binary(addr)·2^64 + blk), so
// U256 arithmetic over keys is exact. It replaces the paper's arbitrary-
// precision `rug` integers (§3.2): the learned models take the *difference*
// K − kmin of two U256 keys as their x coordinate.
type U256 [4]uint64

// U256FromKey converts a compound key to its big-integer form
// binary(addr)·2^64 + blk.
func U256FromKey(k CompoundKey) U256 {
	var u U256
	// addr occupies bits [64, 224): big-endian addr bytes are the most
	// significant. addr[0..3] → high bits of limb 3 ... addr[16..19] → limb 1.
	// Layout: limb0 = blk; limbs 1..3 hold the 160-bit address.
	u[0] = k.Blk
	// The 20 address bytes map to 2.5 limbs; treat addr as a 160-bit
	// big-endian integer occupying bits [64, 224).
	var pad [24]byte // 3 limbs big-endian
	copy(pad[4:], k.Addr[:])
	u[3] = binary.BigEndian.Uint64(pad[0:8])
	u[2] = binary.BigEndian.Uint64(pad[8:16])
	u[1] = binary.BigEndian.Uint64(pad[16:24])
	return u
}

// Float64 converts u to the nearest float64. Values above 2^53 lose
// precision, exactly as at query time: build and query use the same
// conversion, so learned-model error bounds verified at build time hold at
// query time.
func (u U256) Float64() float64 {
	f := 0.0
	for i := 3; i >= 0; i-- {
		f = f*18446744073709551616.0 + float64(u[i])
	}
	return f
}

// KeyDeltaFloat returns float64(K − kmin), the learned-model x coordinate
// for key K in a segment anchored at kmin. K must satisfy K ≥ kmin.
//
// It is U256FromKey(k).Sub(U256FromKey(kmin)).Float64(), bit for bit, with
// the limbs subtracted straight off the address bytes: limb 3 is
// addr[0:4], limb 2 addr[4:12], limb 1 addr[12:20], limb 0 the height.
// The conversion folds the limbs high to low exactly as Float64 does
// (each multiply by 2^64 is exact), so the rounding is the same too. The
// PLA builder calls it once per key and every search once per layer.
func KeyDeltaFloat(k, kmin CompoundKey) float64 {
	d0, b := bits.Sub64(k.Blk, kmin.Blk, 0)
	d1, b := bits.Sub64(binary.BigEndian.Uint64(k.Addr[12:20]), binary.BigEndian.Uint64(kmin.Addr[12:20]), b)
	d2, b := bits.Sub64(binary.BigEndian.Uint64(k.Addr[4:12]), binary.BigEndian.Uint64(kmin.Addr[4:12]), b)
	d3, _ := bits.Sub64(uint64(binary.BigEndian.Uint32(k.Addr[0:4])), uint64(binary.BigEndian.Uint32(kmin.Addr[0:4])), b)
	const limb = 18446744073709551616.0
	return ((float64(d3)*limb+float64(d2))*limb+float64(d1))*limb + float64(d0)
}
