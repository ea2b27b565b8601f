// Package types defines the primitive data model shared by every COLE
// module: fixed-size state addresses and values, compound keys ⟨addr, blk⟩,
// their 224-bit integer form, and the cryptographic hash helpers used by the
// Merkle structures.
//
// The paper (§2, §3.2) fixes both the state address and the state value to
// constant-size strings, and converts a compound key K = ⟨addr, blk⟩ into the
// big integer binary(addr)·2^64 + blk. With 20-byte addresses that integer
// is 224 bits wide, so the fixed four-limb U256 type is exact.
package types

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

const (
	// AddressSize is the byte width of a state address (Ethereum account
	// address width).
	AddressSize = 20
	// ValueSize is the byte width of a state value.
	ValueSize = 32
	// HashSize is the byte width of the cryptographic hash (SHA-256).
	HashSize = 32
	// CompoundKeySize is the encoded width of ⟨addr, blk⟩.
	CompoundKeySize = AddressSize + 8
	// EntrySize is the encoded width of a compound key-value pair as stored
	// in a run's value file.
	EntrySize = CompoundKeySize + ValueSize
	// MaxBlock is the paper's max_int sentinel: Get(addr) searches for
	// ⟨addr, MaxBlock⟩ so the freshest version is the predecessor.
	MaxBlock = math.MaxUint64
)

// Address identifies a ledger state ("column" in the column-based design).
type Address [AddressSize]byte

// Value is a fixed-size state value.
type Value [ValueSize]byte

// Hash is a SHA-256 digest.
type Hash [HashSize]byte

// CompoundKey is the versioned key ⟨addr, blk⟩: blk is the block height at
// which the value of addr was written.
type CompoundKey struct {
	Addr Address
	Blk  uint64
}

// Entry is a compound key-value pair, the unit stored in value files.
type Entry struct {
	Key   CompoundKey
	Value Value
}

// Update is one pending state write of a batch: Addr receives Value at
// the height of the block the batch is applied to. The height itself is
// not part of the update — the engine stamps it when the batch lands,
// which is what lets one batch be rerouted across shards or replayed at
// recovery without rewriting it.
type Update struct {
	Addr  Address
	Value Value
}

// AddressFromBytes builds an Address from arbitrary bytes, hashing when the
// input is not exactly AddressSize long so that any identifier maps to a
// uniformly distributed address.
func AddressFromBytes(b []byte) Address {
	var a Address
	if len(b) == AddressSize {
		copy(a[:], b)
		return a
	}
	sum := sha256.Sum256(b)
	copy(a[:], sum[:AddressSize])
	return a
}

// AddressFromString derives an address from a string identifier (used by
// workload generators: account names, YCSB keys).
func AddressFromString(s string) Address { return AddressFromBytes([]byte(s)) }

// AddressFromUint64 derives an address from an integer identifier.
func AddressFromUint64(v uint64) Address {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return AddressFromBytes(b[:])
}

// ValueFromBytes builds a Value, hashing oversized input and zero-padding
// short input so any payload maps deterministically to a fixed-size value.
func ValueFromBytes(b []byte) Value {
	var v Value
	if len(b) <= ValueSize {
		copy(v[:], b)
		return v
	}
	sum := sha256.Sum256(b)
	copy(v[:], sum[:])
	return v
}

// ValueFromUint64 encodes an integer as a Value (big-endian in the trailing
// bytes so numeric order matches byte order).
func ValueFromUint64(x uint64) Value {
	var v Value
	binary.BigEndian.PutUint64(v[ValueSize-8:], x)
	return v
}

// Uint64 decodes a value produced by ValueFromUint64.
func (v Value) Uint64() uint64 { return binary.BigEndian.Uint64(v[ValueSize-8:]) }

// String renders the address as hex.
func (a Address) String() string { return hex.EncodeToString(a[:]) }

// String renders the value as hex.
func (v Value) String() string { return hex.EncodeToString(v[:]) }

// String renders the hash as hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// String renders the compound key.
func (k CompoundKey) String() string {
	return fmt.Sprintf("⟨%s,%d⟩", hex.EncodeToString(k.Addr[:6]), k.Blk)
}

// Bytes encodes the compound key as addr‖blk big-endian, so lexicographic
// byte order equals numeric order of the 224-bit integer form.
func (k CompoundKey) Bytes() []byte {
	b := make([]byte, CompoundKeySize)
	copy(b, k.Addr[:])
	binary.BigEndian.PutUint64(b[AddressSize:], k.Blk)
	return b
}

// PutBytes encodes the key into dst, which must be at least CompoundKeySize.
func (k CompoundKey) PutBytes(dst []byte) {
	copy(dst, k.Addr[:])
	binary.BigEndian.PutUint64(dst[AddressSize:], k.Blk)
}

// DecodeCompoundKey parses an encoding produced by Bytes.
func DecodeCompoundKey(b []byte) (CompoundKey, error) {
	if len(b) < CompoundKeySize {
		return CompoundKey{}, fmt.Errorf("types: compound key too short: %d bytes", len(b))
	}
	var k CompoundKey
	copy(k.Addr[:], b[:AddressSize])
	k.Blk = binary.BigEndian.Uint64(b[AddressSize:CompoundKeySize])
	return k, nil
}

// Cmp orders compound keys by (addr, blk), i.e. by their big-integer form
// and by the byte order of Bytes. It returns -1, 0, or +1. The address is
// compared as the big-endian words of bytes 0–7, 8–15 and 16–19, then
// blk: the order of bytes.Compare on the encodings, without its call, on
// the hot paths of the L0 tree, the merge heap and run searches.
func (k CompoundKey) Cmp(o CompoundKey) int {
	if c := cmp.Compare(binary.BigEndian.Uint64(k.Addr[0:8]), binary.BigEndian.Uint64(o.Addr[0:8])); c != 0 {
		return c
	}
	if c := cmp.Compare(binary.BigEndian.Uint64(k.Addr[8:16]), binary.BigEndian.Uint64(o.Addr[8:16])); c != 0 {
		return c
	}
	if c := cmp.Compare(binary.BigEndian.Uint32(k.Addr[16:20]), binary.BigEndian.Uint32(o.Addr[16:20])); c != 0 {
		return c
	}
	return cmp.Compare(k.Blk, o.Blk)
}

// Less reports k < o.
func (k CompoundKey) Less(o CompoundKey) bool { return k.Cmp(o) < 0 }

// MaxKeyFor returns the Get-query search key ⟨addr, max_int⟩ (§3.2).
func MaxKeyFor(addr Address) CompoundKey { return CompoundKey{Addr: addr, Blk: MaxBlock} }

// ProvLowerKey returns K_l = ⟨addr, blk_l − 1⟩ used by provenance queries
// (§6.2); blk_l = 0 saturates at 0.
func ProvLowerKey(addr Address, blkLow uint64) CompoundKey {
	if blkLow == 0 {
		return CompoundKey{Addr: addr, Blk: 0}
	}
	return CompoundKey{Addr: addr, Blk: blkLow - 1}
}

// ProvUpperKey returns K_u = ⟨addr, blk_u + 1⟩ (saturating at MaxBlock).
func ProvUpperKey(addr Address, blkHigh uint64) CompoundKey {
	if blkHigh == MaxBlock {
		return CompoundKey{Addr: addr, Blk: MaxBlock}
	}
	return CompoundKey{Addr: addr, Blk: blkHigh + 1}
}

// EncodeEntry writes the 60-byte entry encoding into dst.
func EncodeEntry(dst []byte, e Entry) {
	e.Key.PutBytes(dst)
	copy(dst[CompoundKeySize:], e.Value[:])
}

// DecodeEntry parses an entry written by EncodeEntry.
func DecodeEntry(b []byte) (Entry, error) {
	if len(b) < EntrySize {
		return Entry{}, fmt.Errorf("types: entry too short: %d bytes", len(b))
	}
	k, err := DecodeCompoundKey(b)
	if err != nil {
		return Entry{}, err
	}
	var e Entry
	e.Key = k
	copy(e.Value[:], b[CompoundKeySize:EntrySize])
	return e, nil
}

// HashData hashes the concatenation of the given byte slices.
func HashData(parts ...[]byte) Hash {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// HashEntry computes the Merkle leaf hash h(K‖value) of Definition 2.
func HashEntry(e Entry) Hash {
	var buf [EntrySize]byte
	EncodeEntry(buf[:], e)
	return sha256.Sum256(buf[:])
}

// HashConcat computes the parent hash h(h_1‖…‖h_m) of Definition 2.
func HashConcat(hs ...Hash) Hash {
	h := sha256.New()
	for i := range hs {
		h.Write(hs[i][:])
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// ZeroHash is the all-zero digest, used as the root of empty structures.
var ZeroHash Hash
