package mbtree

import (
	"math/rand"
	"testing"

	"cole/internal/types"
)

// sortedBatch builds an ascending-key batch of n entries for block blk,
// drawing addresses from a bounded universe so consecutive batches
// overwrite some keys of earlier blocks (distinct blk ⇒ distinct key)
// and collide with none of their own.
func sortedBatch(r *rand.Rand, blk uint64, n, universe int) []types.Entry {
	picked := map[int]bool{}
	for len(picked) < n {
		picked[r.Intn(universe)] = true
	}
	out := make([]types.Entry, 0, n)
	for i := 0; i < universe; i++ {
		if picked[i] {
			out = append(out, types.Entry{
				Key:   types.CompoundKey{Addr: types.AddressFromUint64(uint64(i)), Blk: blk},
				Value: types.ValueFromUint64(blk*1000 + uint64(i)),
			})
		}
	}
	return out
}

// TestInsertSortedMatchesSequentialInsert bulk-loads many batches into
// one tree and replays them entry by entry into another: structure is
// hash-visible (internal digests commit separator keys), so equal root
// hashes at every step mean the bulk path built EXACTLY the tree the
// sequential loop builds.
func TestInsertSortedMatchesSequentialInsert(t *testing.T) {
	for _, fanout := range []int{3, 4, 16} {
		r := rand.New(rand.NewSource(int64(fanout)))
		bulk, err := New(fanout)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := New(fanout)
		if err != nil {
			t.Fatal(err)
		}
		for blk := uint64(1); blk <= 60; blk++ {
			batch := sortedBatch(r, blk, 1+r.Intn(40), 120)
			bulk.InsertSorted(batch)
			for _, e := range batch {
				seq.Insert(e.Key, e.Value)
			}
			if bh, sh := bulk.RootHash(), seq.RootHash(); bh != sh {
				t.Fatalf("fanout %d, block %d: bulk root %x != sequential root %x", fanout, blk, bh, sh)
			}
			if bulk.Size() != seq.Size() {
				t.Fatalf("fanout %d, block %d: sizes diverge %d vs %d", fanout, blk, bulk.Size(), seq.Size())
			}
		}
	}
}

// TestInsertSortedOverwrites re-bulk-loads the same keys (same block)
// with new values: the fast path must overwrite in place like Insert
// does, not duplicate.
func TestInsertSortedOverwrites(t *testing.T) {
	tr, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i uint64, v uint64) types.Entry {
		return types.Entry{
			Key:   types.CompoundKey{Addr: types.AddressFromUint64(i), Blk: 1},
			Value: types.ValueFromUint64(v),
		}
	}
	first := make([]types.Entry, 0, 50)
	second := make([]types.Entry, 0, 50)
	for i := uint64(0); i < 50; i++ {
		first = append(first, mk(i, i))
		second = append(second, mk(i, 1000+i))
	}
	tr.InsertSorted(first)
	tr.InsertSorted(second)
	if tr.Size() != 50 {
		t.Fatalf("size %d after overwriting bulk load, want 50", tr.Size())
	}
	for i := uint64(0); i < 50; i++ {
		v, ok := tr.Get(types.CompoundKey{Addr: types.AddressFromUint64(i), Blk: 1})
		if !ok || v != types.ValueFromUint64(1000+i) {
			t.Fatalf("key %d = %v ok=%v, want overwritten value %d", i, v, ok, 1000+i)
		}
	}
}

// TestInsertSortedRespectsSnapshots interleaves copy-on-write snapshots
// with bulk loads: every snapshot's root hash and contents must stay
// frozen while the live tree keeps absorbing batches — the same
// guarantee Insert gives, which the engine's published read views
// depend on.
func TestInsertSortedRespectsSnapshots(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tr, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	type frozen struct {
		snap *Tree
		root types.Hash
		size int
	}
	var snaps []frozen
	for blk := uint64(1); blk <= 40; blk++ {
		tr.InsertSorted(sortedBatch(r, blk, 1+r.Intn(30), 80))
		tr.RootHash() // warm, as the engine does before publishing
		s := tr.Snapshot()
		snaps = append(snaps, frozen{snap: s, root: s.RootHash(), size: s.Size()})
	}
	for i, f := range snaps {
		if got := f.snap.RootHash(); got != f.root {
			t.Fatalf("snapshot %d root changed under later bulk loads: %x != %x", i, got, f.root)
		}
		if got := f.snap.Size(); got != f.size {
			t.Fatalf("snapshot %d size changed: %d != %d", i, got, f.size)
		}
	}
}
