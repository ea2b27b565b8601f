package main

import (
	"encoding/binary"
	"sort"

	"cole"
)

// blockTx is the number of state updates per block, the paper's setting.
const blockTx = 100

// A stored value describes itself: the index of the key it was written
// to, the 1-based position of the write in the run's write stream, and a
// checksum over both. A reader can therefore tell in O(1) whether a value
// belongs to the key it asked for and which write produced it.
func encodeValue(key uint32, seq uint32) cole.Value {
	var v cole.Value
	binary.BigEndian.PutUint64(v[0:], uint64(key))
	binary.BigEndian.PutUint64(v[8:], uint64(seq))
	binary.BigEndian.PutUint64(v[16:], valueSum(key, seq))
	return v
}

// decodeValue returns the key index and write sequence a value embeds;
// ok is false when the checksum or the padding does not hold.
func decodeValue(v cole.Value) (key, seq uint32, ok bool) {
	k := binary.BigEndian.Uint64(v[0:])
	s := binary.BigEndian.Uint64(v[8:])
	if k > 1<<32-1 || s > 1<<32-1 || binary.BigEndian.Uint64(v[24:]) != 0 {
		return 0, 0, false
	}
	key, seq = uint32(k), uint32(s)
	return key, seq, binary.BigEndian.Uint64(v[16:]) == valueSum(key, seq)
}

func valueSum(key, seq uint32) uint64 {
	x := uint64(key)<<32 | uint64(seq)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// blockOf is the height of the block that carries write seq: the whole
// write stream, preload included, is cut into blockTx-update blocks.
func blockOf(seq uint32) uint64 { return uint64(seq-1)/blockTx + 1 }

// oracle is the expected content of the store after any prefix of the
// write stream. writes[i] is the key of write i+1; the per-key version
// lists are laid out back to back (ver[off[k]:off[k+1]] holds key k's
// write sequences, ascending), so a lookup is a binary search in a dense
// []uint32 and allocates nothing. A write that a later write of the same
// block supersedes is left out: the engine keeps the last write of a
// block only.
type oracle struct {
	off []uint32
	ver []uint32
}

func newOracle(keys int, writes []uint32) *oracle {
	o := &oracle{off: make([]uint32, keys+1)}
	keep := make([]bool, len(writes))
	last := make([]uint32, keys) // sequence of each key's previous write
	for i, k := range writes {
		seq := uint32(i + 1)
		if p := last[k]; p != 0 && blockOf(p) == blockOf(seq) {
			keep[p-1] = false
			o.off[k+1]--
		}
		keep[i] = true
		o.off[k+1]++
		last[k] = seq
	}
	for k := 0; k < keys; k++ {
		o.off[k+1] += o.off[k]
	}
	o.ver = make([]uint32, o.off[keys])
	next := append([]uint32(nil), o.off[:keys]...)
	for i, k := range writes {
		if keep[i] {
			o.ver[next[k]] = uint32(i + 1)
			next[k]++
		}
	}
	return o
}

// latest returns the sequence of key's newest write among the first
// committed writes, or 0 when the key has none yet.
func (o *oracle) latest(key uint32, committed uint32) uint32 {
	vs := o.ver[o.off[key]:o.off[key+1]]
	i := sort.Search(len(vs), func(i int) bool { return vs[i] > committed })
	if i == 0 {
		return 0
	}
	return vs[i-1]
}

// at returns the sequence of key's newest write in a block of height at
// most blk, or 0.
func (o *oracle) at(key uint32, blk uint64) uint32 {
	vs := o.ver[o.off[key]:o.off[key+1]]
	i := sort.Search(len(vs), func(i int) bool { return blockOf(vs[i]) > blk })
	if i == 0 {
		return 0
	}
	return vs[i-1]
}

// window returns key's write sequences in blocks [lo, hi] among the first
// committed writes, ascending.
func (o *oracle) window(key uint32, lo, hi uint64, committed uint32) []uint32 {
	vs := o.ver[o.off[key]:o.off[key+1]]
	a := sort.Search(len(vs), func(i int) bool { return blockOf(vs[i]) >= lo })
	b := sort.Search(len(vs), func(i int) bool { return blockOf(vs[i]) > hi || vs[i] > committed })
	if b < a {
		return nil
	}
	return vs[a:b]
}
