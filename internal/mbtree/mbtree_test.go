package mbtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"cole/internal/types"
)

func key(a uint64, blk uint64) types.CompoundKey {
	return types.CompoundKey{Addr: types.AddressFromUint64(a), Blk: blk}
}

// rawKey builds keys whose address order follows the numeric id (hashed
// addresses from AddressFromUint64 are *not* ordered by id).
func rawKey(a uint64, blk uint64) types.CompoundKey {
	var addr types.Address
	addr[18] = byte(a >> 8)
	addr[19] = byte(a)
	return types.CompoundKey{Addr: addr, Blk: blk}
}

func val(x uint64) types.Value { return types.ValueFromUint64(x) }

func fillRandom(t *testing.T, tr *Tree, n int, seed int64) map[types.CompoundKey]types.Value {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ref := make(map[types.CompoundKey]types.Value)
	for i := 0; i < n; i++ {
		k := key(r.Uint64()%500, r.Uint64()%1000)
		v := val(r.Uint64())
		tr.Insert(k, v)
		ref[k] = v
	}
	return ref
}

func TestNewValidatesFanout(t *testing.T) {
	if _, err := New(2); err == nil {
		t.Fatal("fanout 2 must be rejected")
	}
	tr, err := New(0)
	if err != nil || tr == nil {
		t.Fatal("fanout 0 must default")
	}
}

func TestInsertGetAgainstMap(t *testing.T) {
	tr, _ := New(8)
	ref := fillRandom(t, tr, 5000, 1)
	if tr.Size() != len(ref) {
		t.Fatalf("size %d, want %d", tr.Size(), len(ref))
	}
	for k, v := range ref {
		got, ok := tr.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%v) = %v,%v want %v", k, got, ok, v)
		}
	}
	if _, ok := tr.Get(key(10_000, 0)); ok {
		t.Fatal("absent key must miss")
	}
}

func TestOverwriteSameCompoundKey(t *testing.T) {
	tr, _ := New(4)
	k := key(1, 7)
	tr.Insert(k, val(1))
	h1 := tr.RootHash()
	tr.Insert(k, val(2))
	if tr.Size() != 1 {
		t.Fatalf("overwrite must not grow tree, size=%d", tr.Size())
	}
	if got, _ := tr.Get(k); got != val(2) {
		t.Fatal("overwrite must replace value")
	}
	if tr.RootHash() == h1 {
		t.Fatal("root hash must change when a value changes")
	}
}

func TestForEachSortedAndComplete(t *testing.T) {
	tr, _ := New(5)
	ref := fillRandom(t, tr, 3000, 2)
	var keys []types.CompoundKey
	err := tr.ForEach(func(e types.Entry) error {
		keys = append(keys, e.Key)
		if ref[e.Key] != e.Value {
			t.Fatalf("value mismatch at %v", e.Key)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(ref) {
		t.Fatalf("visited %d, want %d", len(keys), len(ref))
	}
	for i := 1; i < len(keys); i++ {
		if !keys[i-1].Less(keys[i]) {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestPredecessor(t *testing.T) {
	tr, _ := New(4)
	a := types.AddressFromUint64(9)
	for _, blk := range []uint64{10, 20, 30} {
		tr.Insert(types.CompoundKey{Addr: a, Blk: blk}, val(blk))
	}
	// Freshest version via max_int sentinel.
	e, ok := tr.Predecessor(types.MaxKeyFor(a))
	if !ok || e.Key.Blk != 30 {
		t.Fatalf("predecessor(max) = %v,%v", e, ok)
	}
	// Mid-range: version active at block 25 is the one written at 20.
	e, ok = tr.Predecessor(types.CompoundKey{Addr: a, Blk: 25})
	if !ok || e.Key.Blk != 20 {
		t.Fatalf("predecessor(25) = %v,%v", e, ok)
	}
	// Exact hit.
	e, ok = tr.Predecessor(types.CompoundKey{Addr: a, Blk: 20})
	if !ok || e.Key.Blk != 20 {
		t.Fatalf("predecessor(20) = %v,%v", e, ok)
	}
	// Below everything.
	if _, ok := tr.Predecessor(types.CompoundKey{Addr: a, Blk: 5}); ok {
		// Note: another address may sort below; with a single address
		// nothing precedes blk 5.
		t.Fatal("nothing precedes the first version")
	}
}

func TestPredecessorAgainstReference(t *testing.T) {
	tr, _ := New(6)
	ref := fillRandom(t, tr, 2000, 3)
	sorted := make([]types.CompoundKey, 0, len(ref))
	for k := range ref {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		q := key(r.Uint64()%500, r.Uint64()%1000)
		idx := sort.Search(len(sorted), func(i int) bool { return q.Less(sorted[i]) })
		e, ok := tr.Predecessor(q)
		if idx == 0 {
			if ok {
				t.Fatalf("query %v: expected no predecessor, got %v", q, e.Key)
			}
			continue
		}
		want := sorted[idx-1]
		if !ok || e.Key != want {
			t.Fatalf("query %v: predecessor %v (ok=%v), want %v", q, e.Key, ok, want)
		}
	}
}

func TestRootHashDeterministicAndOrderIndependent(t *testing.T) {
	// Same key set inserted in different orders must converge... note:
	// B+-tree shape depends on insertion order, so digests may differ —
	// what must hold is determinism for identical insert sequences.
	mk := func(order []int) types.Hash {
		tr, _ := New(4)
		for _, i := range order {
			tr.Insert(key(uint64(i), uint64(i)), val(uint64(i)))
		}
		return tr.RootHash()
	}
	o1 := []int{5, 3, 8, 1, 9, 2, 7}
	h1 := mk(o1)
	h2 := mk(o1)
	if h1 != h2 {
		t.Fatal("identical insert sequences must produce identical roots")
	}
}

func TestRootHashChangesOnInsert(t *testing.T) {
	tr, _ := New(4)
	if tr.RootHash() != types.ZeroHash {
		t.Fatal("empty tree root must be ZeroHash")
	}
	tr.Insert(key(1, 1), val(1))
	h1 := tr.RootHash()
	if h1 == types.ZeroHash {
		t.Fatal("non-empty root must differ from ZeroHash")
	}
	tr.Insert(key(2, 1), val(2))
	if tr.RootHash() == h1 {
		t.Fatal("root must change on insert")
	}
}

// rehash recomputes a node's digest from content with the exported
// verifier-side hash functions, ignoring every cached hash.
func rehash(n node) types.Hash {
	switch nd := n.(type) {
	case *leafNode:
		return LeafHash(nd.entries)
	case *internalNode:
		hs := make([]types.Hash, len(nd.children))
		for i, c := range nd.children {
			hs[i] = rehash(c)
		}
		return InternalHash(nd.mins, hs)
	}
	panic("unknown node")
}

// TestRootHashAllocatesOncePerCall: rehashing a block's worth of dirty
// nodes shares one encoding buffer across the whole recursion (it used to
// allocate one per dirty node), a clean tree allocates nothing, and the
// digests are the ones a from-scratch recomputation yields.
func TestRootHashAllocatesOncePerCall(t *testing.T) {
	tr, _ := New(16)
	fillRandom(t, tr, 4000, 5)
	tr.RootHash()
	r := rand.New(rand.NewSource(6))
	inserts := make([]types.CompoundKey, 100)
	for i := range inserts {
		inserts[i] = key(r.Uint64(), 9)
	}
	// One "block": overwrite 100 scattered keys (the warm-up call inserts
	// them; after that an overwrite allocates nothing), dirtying ~100
	// leaves and their ancestors, then optionally rehash.
	block := func(hash bool) float64 {
		return testing.AllocsPerRun(20, func() {
			for i, k := range inserts {
				tr.Insert(k, val(uint64(i)))
			}
			if hash {
				tr.RootHash()
			}
		})
	}
	if perHash := block(true) - block(false); perHash != 1 {
		t.Fatalf("RootHash over ~100 dirty leaves allocates %.0f times, want 1 shared buffer", perHash)
	}
	tr.RootHash()
	if n := testing.AllocsPerRun(100, func() { tr.RootHash() }); n != 0 {
		t.Fatalf("RootHash on a clean tree allocates %.0f times", n)
	}
	if got, want := tr.RootHash(), rehash(tr.root); got != want {
		t.Fatalf("cached root %x differs from a from-scratch recomputation %x", got, want)
	}
}

func TestRangeQuery(t *testing.T) {
	tr, _ := New(4)
	a := types.AddressFromUint64(1)
	for blk := uint64(0); blk < 100; blk += 10 {
		tr.Insert(types.CompoundKey{Addr: a, Blk: blk}, val(blk))
	}
	got := tr.Range(types.CompoundKey{Addr: a, Blk: 25}, types.CompoundKey{Addr: a, Blk: 65})
	if len(got) != 4 { // 30, 40, 50, 60
		t.Fatalf("range returned %d entries, want 4", len(got))
	}
	for i, want := range []uint64{30, 40, 50, 60} {
		if got[i].Key.Blk != want {
			t.Fatalf("range[%d].Blk = %d, want %d", i, got[i].Key.Blk, want)
		}
	}
}

func TestProveRangeRoundTrip(t *testing.T) {
	tr, _ := New(4)
	ref := fillRandom(t, tr, 500, 5)
	root := tr.RootHash()
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		lo := key(r.Uint64()%500, r.Uint64()%1000)
		hi := key(r.Uint64()%500, r.Uint64()%1000)
		if hi.Less(lo) {
			lo, hi = hi, lo
		}
		want := refRange(ref, lo, hi)
		got, proof, err := tr.ProveRange(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("prover returned %d entries, want %d", len(got), len(want))
		}
		verified, err := VerifyRange(root, proof)
		if err != nil {
			t.Fatalf("verification failed: %v", err)
		}
		if len(verified) != len(want) {
			t.Fatalf("verifier extracted %d entries, want %d", len(verified), len(want))
		}
		for j := range want {
			if verified[j] != want[j] {
				t.Fatalf("entry %d mismatch", j)
			}
		}
	}
}

func refRange(ref map[types.CompoundKey]types.Value, lo, hi types.CompoundKey) []types.Entry {
	var out []types.Entry
	for k, v := range ref {
		if k.Cmp(lo) >= 0 && k.Cmp(hi) <= 0 {
			out = append(out, types.Entry{Key: k, Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return out
}

func TestProveRangeEmptyTree(t *testing.T) {
	tr, _ := New(4)
	got, proof, err := tr.ProveRange(rawKey(0, 0), rawKey(5, 0))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty tree proof: %v", err)
	}
	if _, err := VerifyRange(types.ZeroHash, proof); err != nil {
		t.Fatalf("empty proof must verify against ZeroHash: %v", err)
	}
	if _, err := VerifyRange(types.HashData([]byte("x")), proof); err == nil {
		t.Fatal("empty proof must fail against non-zero root")
	}
}

// chainProof is a forged proof: depth-1 internal nodes, each with one
// child whose separator is the smallest key (valid at every level), over
// a one-entry leaf.
func chainProof(depth int) *Proof {
	n := &ProofNode{Leaf: []types.Entry{{Key: rawKey(1, 1), Value: val(1)}}}
	for i := 1; i < depth; i++ {
		n = &ProofNode{Children: []ProofChild{{MinKey: types.CompoundKey{}, Node: n}}}
	}
	return &Proof{Lo: rawKey(0, 0), Hi: rawKey(2, 0), Root: n}
}

// proofDepth is the number of levels of a proof's deepest path.
func proofDepth(n *ProofNode) int {
	d := 0
	for _, c := range n.Children {
		d = max(d, proofDepth(c.Node))
	}
	return d + 1
}

// TestReconstructRangeBoundsDepth: a proof deeper than maxProofDepth is
// refused before it is walked — a deep enough chain would otherwise
// exhaust the verifier's stack — while one at the bound is walked, and
// the deepest honest tree the tests build (minimum fanout, many entries)
// stays far below it and verifies.
func TestReconstructRangeBoundsDepth(t *testing.T) {
	if _, _, err := ReconstructRange(chainProof(maxProofDepth + 1)); err == nil {
		t.Fatalf("a %d-level chain was walked", maxProofDepth+1)
	}
	if _, _, err := ReconstructRange(chainProof(1 << 16)); err == nil {
		t.Fatal("a 65 536-level chain was walked")
	}
	if _, _, err := ReconstructRange(chainProof(maxProofDepth)); err != nil {
		t.Fatalf("a %d-level chain was refused: %v", maxProofDepth, err)
	}

	tr, _ := New(3)
	for i := uint64(0); i < 20000; i++ {
		tr.Insert(rawKey(i, i), val(i))
	}
	_, proof, err := tr.ProveRange(rawKey(0, 0), rawKey(20000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if d := proofDepth(proof.Root); d < 9 || d > maxProofDepth {
		t.Fatalf("a fanout-3 tree of 20 000 entries proves %d levels deep", d)
	}
	if got, err := VerifyRange(tr.RootHash(), proof); err != nil || len(got) != 20000 {
		t.Fatalf("deepest honest proof: %d entries, %v", len(got), err)
	}
}

func TestProveRangeInvertedRejected(t *testing.T) {
	tr, _ := New(4)
	tr.Insert(key(1, 1), val(1))
	if _, _, err := tr.ProveRange(rawKey(5, 0), rawKey(1, 0)); err == nil {
		t.Fatal("inverted range must error")
	}
}

func TestVerifyDetectsTamperedValue(t *testing.T) {
	tr, _ := New(4)
	for i := uint64(0); i < 50; i++ {
		tr.Insert(rawKey(i, i), val(i))
	}
	root := tr.RootHash()
	_, proof, _ := tr.ProveRange(rawKey(10, 0), rawKey(20, 100))
	tampered := mutateFirstLeaf(proof.Root)
	if !tampered {
		t.Fatal("test setup: no leaf found to tamper")
	}
	if _, err := VerifyRange(root, proof); err == nil {
		t.Fatal("tampered value must not verify")
	}
}

func mutateFirstLeaf(n *ProofNode) bool {
	if n == nil {
		return false
	}
	if n.Pruned != nil {
		return false
	}
	if n.Children == nil {
		if len(n.Leaf) == 0 {
			return false
		}
		n.Leaf[0].Value[0] ^= 1
		return true
	}
	for i := range n.Children {
		if mutateFirstLeaf(n.Children[i].Node) {
			return true
		}
	}
	return false
}

func TestVerifyDetectsHiddenResults(t *testing.T) {
	// A malicious prover prunes a subtree that actually holds in-range
	// keys. Build a correct proof for a *different* (narrower) range and
	// claim it answers the wide one: verification must fail.
	tr, _ := New(4)
	for i := uint64(0); i < 200; i++ {
		tr.Insert(rawKey(i, 1), val(i))
	}
	root := tr.RootHash()
	_, narrow, _ := tr.ProveRange(rawKey(100, 0), rawKey(100, 10))
	narrow.Lo = rawKey(0, 0) // claim the proof covers everything
	narrow.Hi = rawKey(199, 10)
	if _, err := VerifyRange(root, narrow); err == nil {
		t.Fatal("pruned in-range subtrees must be detected")
	}
}

func TestVerifyDetectsReorderedEntries(t *testing.T) {
	tr, _ := New(4)
	for i := uint64(0); i < 30; i++ {
		tr.Insert(key(1, i), val(i))
	}
	root := tr.RootHash()
	_, proof, _ := tr.ProveRange(key(1, 5), key(1, 12))
	swapLeafEntries(proof.Root)
	if _, err := VerifyRange(root, proof); err == nil {
		t.Fatal("reordered entries must not verify")
	}
}

func swapLeafEntries(n *ProofNode) bool {
	if n == nil || n.Pruned != nil {
		return false
	}
	if n.Children == nil {
		if len(n.Leaf) < 2 {
			return false
		}
		n.Leaf[0], n.Leaf[1] = n.Leaf[1], n.Leaf[0]
		return true
	}
	for i := range n.Children {
		if swapLeafEntries(n.Children[i].Node) {
			return true
		}
	}
	return false
}

func TestProofSizeSublinearInTreeSize(t *testing.T) {
	mkProof := func(n int) int {
		tr, _ := New(16)
		for i := uint64(0); i < uint64(n); i++ {
			tr.Insert(key(i, 1), val(i))
		}
		_, p, _ := tr.ProveRange(key(uint64(n/2), 0), key(uint64(n/2), 10))
		return p.Size()
	}
	small, large := mkProof(100), mkProof(10000)
	if large > small*8 {
		t.Fatalf("point-proof size grew from %d to %d for 100× data", small, large)
	}
}

func TestPropertyTreeMatchesMapUnderRandomOps(t *testing.T) {
	f := func(seed int64, nOps uint16) bool {
		n := int(nOps%800) + 1
		r := rand.New(rand.NewSource(seed))
		tr, _ := New(3 + r.Intn(14))
		ref := make(map[types.CompoundKey]types.Value)
		for i := 0; i < n; i++ {
			k := key(r.Uint64()%50, r.Uint64()%100)
			v := val(r.Uint64())
			tr.Insert(k, v)
			ref[k] = v
		}
		if tr.Size() != len(ref) {
			return false
		}
		for k, v := range ref {
			if got, ok := tr.Get(k); !ok || got != v {
				return false
			}
		}
		// Full-range proof returns everything.
		lo := types.CompoundKey{}
		hi := types.CompoundKey{Addr: types.Address{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, Blk: types.MaxBlock}
		res, p, err := tr.ProveRange(lo, hi)
		if err != nil || len(res) != len(ref) {
			return false
		}
		v, err := VerifyRange(tr.RootHash(), p)
		return err == nil && len(v) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDeepTreeSplitsInternalNodes(t *testing.T) {
	tr, _ := New(3) // tiny fanout forces many levels
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Insert(key(uint64(i), 1), val(uint64(i)))
	}
	if tr.Size() != n {
		t.Fatalf("size %d", tr.Size())
	}
	count := 0
	_ = tr.ForEach(func(types.Entry) error { count++; return nil })
	if count != n {
		t.Fatalf("scan %d, want %d", count, n)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	tr, _ := New(4)
	for i := uint64(0); i < 100; i++ {
		tr.Insert(key(i, 1), val(i))
	}
	seen := 0
	sentinel := rand.New(rand.NewSource(1)) // unused, placate lint about rand
	_ = sentinel
	stop := tr.ForEach(func(types.Entry) error {
		seen++
		if seen == 10 {
			return errStop
		}
		return nil
	})
	if stop != errStop || seen != 10 {
		t.Fatalf("early stop: err=%v seen=%d", stop, seen)
	}
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }
