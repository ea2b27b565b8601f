// Package mbtree implements the Merkle B+-tree used for COLE's in-memory
// level L0 (paper §3.2, citing Li et al. [29]).
//
// The tree stores compound key-value pairs sorted by key. Every node is
// augmented with a digest: a leaf hashes its entry list, an internal node
// hashes the (minKey, childHash) sequence of its children. Including the
// separator keys in the digest is what lets range-proof verifiers confirm
// that pruned subtrees cannot contain in-range keys (completeness).
//
// L0 is flushed wholesale once it holds B entries, so the tree supports
// insert/overwrite, point and predecessor lookups, ordered scans, and
// authenticated range queries — but no deletion (COLE never deletes;
// obsolete versions are superseded by newer compound keys).
//
// Snapshot returns an O(1) frozen copy-on-write view of the tree: the
// snapshot shares the current nodes, and subsequent Inserts on the live
// tree path-copy any shared node before mutating it (generation-stamped
// nodes, classic persistent B-tree). A snapshot whose hashes were warmed
// with RootHash() before it was taken is safe for concurrent readers —
// every operation on it, including ProveRange, is a pure read.
package mbtree

import (
	"fmt"

	"cole/internal/types"
)

// DefaultFanout is the maximum number of children (internal) or entries
// (leaf) per node.
const DefaultFanout = 16

const (
	leafHashTag     = 0x00
	internalHashTag = 0x01
)

// Tree is an in-memory Merkle B+-tree.
type Tree struct {
	root   node
	fanout int
	size   int
	// gen is the copy-on-write generation: nodes stamped with an older
	// generation are shared with a snapshot and must be copied before
	// they are mutated.
	gen uint64
}

type node interface {
	minKey() types.CompoundKey
}

type leafNode struct {
	entries []types.Entry
	hash    types.Hash
	dirty   bool
	gen     uint64
}

type internalNode struct {
	mins     []types.CompoundKey
	children []node
	hash     types.Hash
	dirty    bool
	gen      uint64
}

// New creates an empty tree with the given fanout (≥ 3; DefaultFanout if 0).
func New(fanout int) (*Tree, error) {
	if fanout == 0 {
		fanout = DefaultFanout
	}
	if fanout < 3 {
		return nil, fmt.Errorf("mbtree: fanout %d < 3", fanout)
	}
	return &Tree{fanout: fanout}, nil
}

// Size returns the number of entries.
func (t *Tree) Size() int { return t.size }

// Snapshot returns a frozen copy-on-write view of the tree in O(1): the
// snapshot shares the current nodes, and the live tree path-copies any
// shared node before mutating it, so the snapshot's structure, contents,
// and root hash never change. Warm the hash cache (RootHash) before
// snapshotting if the snapshot will be read concurrently: a snapshot with
// clean digests is safe for any number of parallel readers while the live
// tree keeps absorbing Inserts.
func (t *Tree) Snapshot() *Tree {
	snap := &Tree{root: t.root, fanout: t.fanout, size: t.size, gen: t.gen}
	t.gen++ // every current node is now shared; copy before mutating
	return snap
}

// leafEntries returns a copy of src at full node capacity, fanout+1. Every
// node slice is allocated that way: a node holds at most fanout items,
// and fanout+1 just before it splits, so an insert never grows a slice it
// owns. In particular the insert that follows a copy-on-write copy does
// not copy the node a second time.
func (t *Tree) leafEntries(src []types.Entry) []types.Entry {
	return append(make([]types.Entry, 0, t.fanout+1), src...)
}

// internalSlots is leafEntries for an internal node's mins and children.
func (t *Tree) internalSlots(mins []types.CompoundKey, children []node) ([]types.CompoundKey, []node) {
	return append(make([]types.CompoundKey, 0, t.fanout+1), mins...),
		append(make([]node, 0, t.fanout+1), children...)
}

// ownedLeaf returns n if it is exclusively owned by the live tree, or a
// copy stamped with the current generation otherwise.
func (t *Tree) ownedLeaf(n *leafNode) *leafNode {
	if n.gen == t.gen {
		return n
	}
	return &leafNode{
		entries: t.leafEntries(n.entries),
		hash:    n.hash,
		dirty:   n.dirty,
		gen:     t.gen,
	}
}

// ownedInternal is ownedLeaf for internal nodes; children pointers are
// shared (they are copied on their own first mutation).
func (t *Tree) ownedInternal(n *internalNode) *internalNode {
	if n.gen == t.gen {
		return n
	}
	nd := &internalNode{hash: n.hash, dirty: n.dirty, gen: t.gen}
	nd.mins, nd.children = t.internalSlots(n.mins, n.children)
	return nd
}

// Insert adds an entry, overwriting the value if the compound key exists
// (the last write of an address within a block wins).
func (t *Tree) Insert(key types.CompoundKey, value types.Value) {
	e := types.Entry{Key: key, Value: value}
	if t.root == nil {
		t.root = &leafNode{entries: t.leafEntries([]types.Entry{e}), dirty: true, gen: t.gen}
		t.size = 1
		return
	}
	self, replaced, right := t.insert(t.root, e)
	t.root = self
	if !replaced {
		t.size++
	}
	if right != nil {
		root := &internalNode{dirty: true, gen: t.gen}
		root.mins, root.children = t.internalSlots(
			[]types.CompoundKey{self.minKey(), right.minKey()}, []node{self, right})
		t.root = root
	}
}

// insert descends copy-on-write: it returns the node that now holds the
// subtree (n itself, or a generation-stamped copy if n was shared with a
// snapshot), whether an existing key was replaced, and a new right
// sibling if the subtree split.
func (t *Tree) insert(n node, e types.Entry) (self node, replaced bool, right node) {
	switch v := n.(type) {
	case *leafNode:
		nd := t.ownedLeaf(v)
		nd.dirty = true
		idx, found := searchEntries(nd.entries, e.Key)
		if found {
			nd.entries[idx] = e
			return nd, true, nil
		}
		nd.entries = append(nd.entries, types.Entry{})
		copy(nd.entries[idx+1:], nd.entries[idx:])
		nd.entries[idx] = e
		if len(nd.entries) <= t.fanout {
			return nd, false, nil
		}
		mid := len(nd.entries) / 2
		sib := &leafNode{entries: t.leafEntries(nd.entries[mid:]), dirty: true, gen: t.gen}
		nd.entries = nd.entries[:mid]
		return nd, false, sib
	case *internalNode:
		nd := t.ownedInternal(v)
		nd.dirty = true
		ci := childIndex(nd.mins, e.Key)
		child, replaced, newChild := t.insert(nd.children[ci], e)
		nd.children[ci] = child
		nd.mins[ci] = child.minKey()
		if newChild != nil {
			nd.mins = append(nd.mins, types.CompoundKey{})
			nd.children = append(nd.children, nil)
			copy(nd.mins[ci+2:], nd.mins[ci+1:])
			copy(nd.children[ci+2:], nd.children[ci+1:])
			nd.mins[ci+1] = newChild.minKey()
			nd.children[ci+1] = newChild
		}
		if len(nd.children) <= t.fanout {
			return nd, replaced, nil
		}
		mid := len(nd.children) / 2
		sib := &internalNode{dirty: true, gen: t.gen}
		sib.mins, sib.children = t.internalSlots(nd.mins[mid:], nd.children[mid:])
		nd.mins = nd.mins[:mid]
		nd.children = nd.children[:mid]
		return nd, replaced, sib
	}
	panic("mbtree: unknown node type")
}

// InsertSorted bulk-loads entries whose keys are in ascending order.
// It produces EXACTLY the tree a sequential Insert loop over the same
// slice would — identical structure and root hash — but amortizes the
// descent: after placing one key it keeps the (copy-on-write owned)
// target leaf, and every following key that still belongs in that leaf
// is appended or overwritten in place without touching the path again.
// The fast path applies only when sequential Insert would also have
// appended without splitting (key below the leaf's subtree upper bound,
// leaf below fanout, key above the leaf's current tail); everything
// else falls back to Insert and re-descends, so the equivalence holds
// by construction rather than by re-implementation. The engine never
// calls it (every L0 write goes through Insert); outside its own tests,
// its only caller is the benchmark's mbtree.insert_sorted_ns probe.
func (t *Tree) InsertSorted(entries []types.Entry) {
	var leaf *leafNode
	var upper types.CompoundKey
	hasUpper := false
	for _, e := range entries {
		if leaf != nil && (!hasUpper || e.Key.Less(upper)) {
			idx, found := searchEntries(leaf.entries, e.Key)
			if found {
				leaf.entries[idx] = e
				continue
			}
			if idx == len(leaf.entries) && len(leaf.entries) < t.fanout {
				leaf.entries = append(leaf.entries, e)
				t.size++
				continue
			}
		}
		t.Insert(e.Key, e.Value)
		leaf, upper, hasUpper = t.descendOwned(e.Key)
	}
}

// descendOwned walks from the root to the leaf covering key, converting
// every node on the path to an owned, dirty copy (the same path-copying
// Insert performs), and returns that leaf together with the exclusive
// upper bound of its subtree (the min key of the next sibling at the
// lowest branch where one exists; hasUpper is false on the rightmost
// path). Ancestors are dirtied here once, so in-place appends to the
// returned leaf need no further path maintenance: appending at a leaf's
// tail never changes any minKey, and digests are recomputed from
// content, making a spuriously dirty node a pure cache miss.
func (t *Tree) descendOwned(key types.CompoundKey) (*leafNode, types.CompoundKey, bool) {
	var upper types.CompoundKey
	hasUpper := false
	switch v := t.root.(type) {
	case *leafNode:
		nd := t.ownedLeaf(v)
		nd.dirty = true
		t.root = nd
		return nd, upper, hasUpper
	case *internalNode:
		nd := t.ownedInternal(v)
		nd.dirty = true
		t.root = nd
		cur := nd
		for {
			ci := childIndex(cur.mins, key)
			if ci+1 < len(cur.mins) {
				upper = cur.mins[ci+1]
				hasUpper = true
			}
			switch cv := cur.children[ci].(type) {
			case *leafNode:
				l := t.ownedLeaf(cv)
				l.dirty = true
				cur.children[ci] = l
				return l, upper, hasUpper
			case *internalNode:
				ic := t.ownedInternal(cv)
				ic.dirty = true
				cur.children[ci] = ic
				cur = ic
			}
		}
	}
	panic("mbtree: descendOwned on empty tree")
}

// searchEntries returns the insertion index for key and whether it exists.
func searchEntries(entries []types.Entry, key types.CompoundKey) (int, bool) {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if entries[mid].Key.Less(key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(entries) && entries[lo].Key == key {
		return lo, true
	}
	return lo, false
}

// childIndex picks the child whose interval contains key: the rightmost
// child with min ≤ key (child 0 if key precedes every min).
func childIndex(mins []types.CompoundKey, key types.CompoundKey) int {
	lo, hi := 0, len(mins)-1
	idx := 0
	for lo <= hi {
		mid := (lo + hi) / 2
		if mins[mid].Cmp(key) <= 0 {
			idx = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return idx
}

// Get returns the value stored at exactly key.
func (t *Tree) Get(key types.CompoundKey) (types.Value, bool) {
	n := t.root
	for n != nil {
		switch nd := n.(type) {
		case *leafNode:
			idx, found := searchEntries(nd.entries, key)
			if !found {
				return types.Value{}, false
			}
			return nd.entries[idx].Value, true
		case *internalNode:
			n = nd.children[childIndex(nd.mins, key)]
		}
	}
	return types.Value{}, false
}

// Predecessor returns the entry with the largest key ≤ key (the L0 search
// of Algorithm 6: Kq = ⟨addr, max_int⟩ finds the freshest version).
func (t *Tree) Predecessor(key types.CompoundKey) (types.Entry, bool) {
	var best types.Entry
	found := false
	n := t.root
	for n != nil {
		switch nd := n.(type) {
		case *leafNode:
			idx, exact := searchEntries(nd.entries, key)
			if exact {
				return nd.entries[idx], true
			}
			if idx > 0 {
				return nd.entries[idx-1], true
			}
			return best, found
		case *internalNode:
			ci := childIndex(nd.mins, key)
			// Entries smaller than this child's subtree live to the left;
			// remember the rightmost one seen so far in case the chosen
			// subtree has no key ≤ key (possible only for ci = 0).
			if ci > 0 {
				if e, ok := maxEntry(nd.children[ci-1]); ok {
					best, found = e, true
				}
			}
			n = nd.children[ci]
		}
	}
	return best, found
}

func maxEntry(n node) (types.Entry, bool) {
	for {
		switch nd := n.(type) {
		case *leafNode:
			if len(nd.entries) == 0 {
				return types.Entry{}, false
			}
			return nd.entries[len(nd.entries)-1], true
		case *internalNode:
			n = nd.children[len(nd.children)-1]
		}
	}
}

// ForEach visits every entry in key order (used to flush L0 as a sorted
// run); stopping early is signalled by returning a non-nil error.
func (t *Tree) ForEach(fn func(types.Entry) error) error {
	return forEach(t.root, fn)
}

func forEach(n node, fn func(types.Entry) error) error {
	switch nd := n.(type) {
	case nil:
		return nil
	case *leafNode:
		for _, e := range nd.entries {
			if err := fn(e); err != nil {
				return err
			}
		}
		return nil
	case *internalNode:
		for _, c := range nd.children {
			if err := forEach(c, fn); err != nil {
				return err
			}
		}
		return nil
	}
	panic("mbtree: unknown node type")
}

// RootHash returns the Merkle digest of the tree (ZeroHash when empty),
// recomputing only dirty nodes.
func (t *Tree) RootHash() types.Hash {
	if t.root == nil {
		return types.ZeroHash
	}
	buf := t.newHashBuf()
	return digest(t.root, &buf)
}

// hashBuf is the node-encoding buffer one RootHash (or ProveRange) call
// threads through its recursion, so rehashing a block's dirty nodes
// allocates once instead of once per node. It belongs to the call, not
// the tree: frozen snapshots are hashed and proven concurrently. A clean
// tree never touches it, so those reads allocate nothing.
type hashBuf struct {
	b       []byte
	nodeMax int // encoded size of a node at full fanout
}

func (t *Tree) newHashBuf() hashBuf {
	const slot = max(types.EntrySize, types.CompoundKeySize+types.HashSize)
	return hashBuf{nodeMax: 1 + t.fanout*slot}
}

// sized returns the buffer resliced to n bytes, allocating it on first
// use.
func (h *hashBuf) sized(n int) []byte {
	if cap(h.b) < n {
		h.b = make([]byte, max(n, h.nodeMax))
	}
	return h.b[:n]
}

// digest returns n's Merkle digest, recomputing (and caching) it when the
// node is dirty.
func digest(n node, buf *hashBuf) types.Hash {
	switch nd := n.(type) {
	case *leafNode:
		if nd.dirty {
			nd.hash = hashLeaf(buf.sized(1+len(nd.entries)*types.EntrySize), nd.entries)
			nd.dirty = false
		}
		return nd.hash
	case *internalNode:
		if nd.dirty {
			// Children first: they encode into the same buffer, so this
			// node's own encoding starts only once every child digest is
			// cached and the loop below reads them back clean.
			for _, c := range nd.children {
				digest(c, buf)
			}
			b := buf.sized(1 + len(nd.children)*(types.CompoundKeySize+types.HashSize))
			b[0] = internalHashTag
			off := 1
			for i, c := range nd.children {
				nd.mins[i].PutBytes(b[off:])
				off += types.CompoundKeySize
				h := digest(c, buf)
				copy(b[off:], h[:])
				off += types.HashSize
			}
			nd.hash = types.HashData(b)
			nd.dirty = false
		}
		return nd.hash
	}
	panic("mbtree: unknown node type")
}

func (n *leafNode) minKey() types.CompoundKey {
	if len(n.entries) == 0 {
		return types.CompoundKey{}
	}
	return n.entries[0].Key
}

func (n *internalNode) minKey() types.CompoundKey { return n.mins[0] }

// hashLeaf encodes a leaf's entry list into b (exactly
// 1+len(entries)·EntrySize bytes) and hashes it.
func hashLeaf(b []byte, entries []types.Entry) types.Hash {
	b[0] = leafHashTag
	for i, e := range entries {
		types.EncodeEntry(b[1+i*types.EntrySize:], e)
	}
	return types.HashData(b)
}

// LeafHash recomputes the digest of a revealed leaf entry list (used by
// proof verification).
func LeafHash(entries []types.Entry) types.Hash {
	return hashLeaf(make([]byte, 1+len(entries)*types.EntrySize), entries)
}

// InternalHash recomputes the digest of an internal node from its
// children's (minKey, hash) pairs (used by proof verification).
func InternalHash(mins []types.CompoundKey, hashes []types.Hash) types.Hash {
	buf := make([]byte, 1+len(hashes)*(types.CompoundKeySize+types.HashSize))
	buf[0] = internalHashTag
	off := 1
	for i := range hashes {
		mins[i].PutBytes(buf[off:])
		off += types.CompoundKeySize
		copy(buf[off:], hashes[i][:])
		off += types.HashSize
	}
	return types.HashData(buf)
}
