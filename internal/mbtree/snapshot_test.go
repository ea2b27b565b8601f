package mbtree

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"cole/internal/types"
)

func snapKey(i uint64) types.CompoundKey {
	return types.CompoundKey{Addr: types.AddressFromUint64(i % 64), Blk: i}
}

// TestSnapshotFrozen checks that a snapshot's contents and root hash are
// immune to every later Insert on the live tree, including overwrites of
// keys the snapshot holds and splits of shared nodes.
func TestSnapshotFrozen(t *testing.T) {
	tr, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 200; i++ {
		tr.Insert(snapKey(i), types.ValueFromUint64(i))
	}
	root := tr.RootHash()
	snap := tr.Snapshot()

	if snap.Size() != 200 || snap.RootHash() != root {
		t.Fatal("snapshot does not match the tree it was taken from")
	}

	// Overwrite half the existing keys and add new ones.
	for i := uint64(0); i < 300; i++ {
		tr.Insert(snapKey(i), types.ValueFromUint64(i+1000))
	}
	if tr.RootHash() == root {
		t.Fatal("live tree root did not change")
	}
	if snap.RootHash() != root {
		t.Fatal("snapshot root changed under writes")
	}
	if snap.Size() != 200 {
		t.Fatalf("snapshot size %d, want 200", snap.Size())
	}
	for i := uint64(0); i < 200; i++ {
		v, ok := snap.Get(snapKey(i))
		if !ok || v != types.ValueFromUint64(i) {
			t.Fatalf("snapshot key %d = %v ok=%v, want original value", i, v, ok)
		}
	}
	if _, ok := snap.Get(snapKey(250)); ok {
		t.Fatal("snapshot sees a key inserted after it was taken")
	}
	// Proofs built from the snapshot verify against the frozen root.
	lo := types.CompoundKey{}
	hi := types.CompoundKey{Addr: types.AddressFromUint64(3), Blk: types.MaxBlock}
	_, proof, err := snap.ProveRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyRange(root, proof); err != nil {
		t.Fatalf("snapshot proof: %v", err)
	}
}

// TestSnapshotChain takes a snapshot per round and checks every older
// snapshot stays intact (multiple generations sharing structure).
func TestSnapshotChain(t *testing.T) {
	tr, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	type gen struct {
		snap *Tree
		root types.Hash
		size int
	}
	var gens []gen
	for round := 0; round < 10; round++ {
		for i := 0; i < 50; i++ {
			k := uint64(round*50 + i)
			tr.Insert(snapKey(k), types.ValueFromUint64(k))
		}
		tr.RootHash()
		gens = append(gens, gen{snap: tr.Snapshot(), root: tr.RootHash(), size: tr.Size()})
	}
	for gi, g := range gens {
		if g.snap.RootHash() != g.root || g.snap.Size() != g.size {
			t.Fatalf("generation %d drifted", gi)
		}
	}
}

// TestSnapshotConcurrentReaders runs parallel readers over warmed
// snapshots while the live tree keeps inserting (meant for -race).
func TestSnapshotConcurrentReaders(t *testing.T) {
	tr, err := New(DefaultFanout)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		tr.Insert(snapKey(i), types.ValueFromUint64(i))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	spawnReaders := func(snap *Tree, upTo uint64) {
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					i := uint64(r.Intn(int(upTo)))
					if _, ok := snap.Get(snapKey(i)); !ok {
						t.Error("snapshot lost a key")
						return
					}
					snap.Predecessor(snapKey(i))
					k := snapKey(i)
					if _, _, err := snap.ProveRange(k, types.CompoundKey{Addr: k.Addr, Blk: k.Blk + 10}); err != nil {
						t.Error(err)
						return
					}
				}
			}(int64(g))
		}
	}

	for round := uint64(1); round <= 5; round++ {
		tr.RootHash() // warm digests so snapshot reads are pure
		spawnReaders(tr.Snapshot(), round*100)
		for i := round * 100; i < (round+1)*100; i++ {
			tr.Insert(snapKey(i), types.ValueFromUint64(i))
		}
	}
	close(stop)
	wg.Wait()
}

// pathTo returns how many internal nodes lie on the path from the root to
// the leaf covering k, and that leaf.
func pathTo(tr *Tree, k types.CompoundKey) (int, *leafNode) {
	internals := 0
	n := tr.root
	for {
		switch nd := n.(type) {
		case *internalNode:
			internals++
			n = nd.children[childIndex(nd.mins, k)]
		case *leafNode:
			return internals, nd
		}
	}
}

// mallocs counts the heap allocations f makes.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestInsertAfterSnapshotCopiesOnce: the first insert into a leaf shared
// with a snapshot copies each node on its path once, at a capacity the
// insert then fits in, and the next insert into that leaf allocates
// nothing. A copy sized to its node's length would be grown (copied
// again) by the very insert that made it.
func TestInsertAfterSnapshotCopiesOnce(t *testing.T) {
	tr, _ := New(DefaultFanout)
	r := rand.New(rand.NewSource(7))
	for tr.Size() < 2048 {
		tr.Insert(key(r.Uint64(), 1), val(1))
	}
	tr.RootHash()
	// Two new keys of one address: nothing lies between them, so they
	// share a leaf; pick one with room for both, so neither insert splits.
	var k1, k2 types.CompoundKey
	internals := 0
	for {
		k1 = key(r.Uint64(), 2)
		k2 = types.CompoundKey{Addr: k1.Addr, Blk: 3}
		n, l1 := pathTo(tr, k1)
		_, l2 := pathTo(tr, k2)
		if l1 == l2 && len(l1.entries)+2 <= tr.fanout {
			internals = n
			break
		}
	}
	if internals < 2 {
		t.Fatalf("path has %d internal nodes, want a tree at least three deep", internals)
	}
	tr.Snapshot()
	// A copied leaf is its struct and its entries; a copied internal node
	// is its struct, its mins and its children.
	want := uint64(2 + 3*internals)
	if got := mallocs(func() { tr.Insert(k1, val(2)) }); got != want {
		t.Fatalf("first insert after Snapshot: %d allocations, want %d (copies of %d internal nodes and 1 leaf)", got, want, internals)
	}
	if got := mallocs(func() { tr.Insert(k2, val(3)) }); got != 0 {
		t.Fatalf("second insert into the copied leaf: %d allocations, want 0", got)
	}
	if v, ok := tr.Get(k2); !ok || v != val(3) {
		t.Fatal("second insert lost")
	}
}

// BenchmarkBlockAfterSnapshot times one L0 block the way the engine pays
// for it: Snapshot a half-full 4 096-entry tree whose digests are clean,
// insert 100 random keys, and RootHash. Every op starts from the same
// frozen tree, so each insert path-copies the shared nodes it reaches,
// a cost insert benchmarks that never snapshot do not see.
func BenchmarkBlockAfterSnapshot(b *testing.B) {
	const blockSize, blocks = 100, 64
	tr, _ := New(DefaultFanout)
	r := rand.New(rand.NewSource(1))
	for tr.Size() < 4096/2 {
		tr.Insert(key(r.Uint64(), 1), val(1))
	}
	tr.RootHash()
	frozen := tr.Snapshot()
	keys := make([]types.CompoundKey, blockSize*blocks)
	for i := range keys {
		keys[i] = key(r.Uint64(), 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A copy of a frozen tree is a live tree at the frozen generation;
		// its own Snapshot marks every node shared, as a commit does.
		live := *frozen
		live.Snapshot()
		off := (i % blocks) * blockSize
		for j, k := range keys[off : off+blockSize] {
			live.Insert(k, val(uint64(j)))
		}
		live.RootHash()
	}
}
