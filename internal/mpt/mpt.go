// Package mpt implements a Merkle Patricia Trie, the Ethereum index that
// COLE's evaluation uses as its primary baseline (paper §1, §2, §8).
//
// The trie maps fixed-width addresses (40 nibbles) to fixed-width values.
// Nodes are content-addressed: a node's storage key is the hash of its
// encoding, and parents reference children by hash, so the root hash
// commits the entire state (Figure 1).
//
// Two modes match the paper's two uses:
//
//   - Persistent (the MPT baseline): updates write new nodes along the
//     path and never delete old ones, so every historical root remains
//     traversable — that is how MPT supports provenance queries, and why
//     its storage balloons (§1: the index dominates storage).
//   - Non-persistent (CMI's upper index): obsolete nodes are reference-
//     counted and deleted, keeping only the latest version.
//
// Nodes live in a kvstore.DB (the RocksDB substitute), mirroring
// Ethereum-on-RocksDB.
package mpt

import (
	"bytes"
	"fmt"

	"cole/internal/kvstore"
	"cole/internal/types"
)

const (
	nodeLeaf      = 0x01
	nodeExtension = 0x02
	nodeBranch    = 0x03
)

// Trie is a Merkle Patricia Trie over a node store.
type Trie struct {
	db         *kvstore.DB
	persistent bool
	root       types.Hash
	refs       map[types.Hash]int // non-persistent mode reference counts
	cache      map[types.Hash][]byte
	cacheCap   int
	stats      Stats
}

// Stats counts trie-level operations.
type Stats struct {
	Puts       int64
	Gets       int64
	NodesRead  int64
	NodesWrite int64
	CacheHits  int64
}

// New creates a trie over db. persistent selects node retention.
func New(db *kvstore.DB, persistent bool) *Trie {
	return &Trie{
		db:         db,
		persistent: persistent,
		refs:       map[types.Hash]int{},
		cache:      map[types.Hash][]byte{},
		cacheCap:   4096,
	}
}

// Root returns the current root hash (types.ZeroHash when empty).
func (t *Trie) Root() types.Hash { return t.root }

// nibbles expands an address into 40 half-bytes.
func nibbles(addr types.Address) []byte {
	out := make([]byte, types.AddressSize*2)
	for i, b := range addr {
		out[2*i] = b >> 4
		out[2*i+1] = b & 0x0F
	}
	return out
}

// ---- node model ----

type leaf struct {
	path  []byte // remaining nibbles
	value types.Value
}

type extension struct {
	path  []byte // shared nibbles
	child types.Hash
}

type branch struct {
	children [16]types.Hash // ZeroHash = absent
}

func encodeNode(n interface{}) []byte {
	switch nd := n.(type) {
	case *leaf:
		out := make([]byte, 0, 2+len(nd.path)+types.ValueSize)
		out = append(out, nodeLeaf, byte(len(nd.path)))
		out = append(out, nd.path...)
		out = append(out, nd.value[:]...)
		return out
	case *extension:
		out := make([]byte, 0, 2+len(nd.path)+types.HashSize)
		out = append(out, nodeExtension, byte(len(nd.path)))
		out = append(out, nd.path...)
		out = append(out, nd.child[:]...)
		return out
	case *branch:
		var bitmap uint16
		for i, c := range nd.children {
			if c != types.ZeroHash {
				bitmap |= 1 << uint(i)
			}
		}
		out := make([]byte, 0, 3+16*types.HashSize)
		out = append(out, nodeBranch, byte(bitmap>>8), byte(bitmap))
		for _, c := range nd.children {
			if c != types.ZeroHash {
				out = append(out, c[:]...)
			}
		}
		return out
	}
	panic("mpt: unknown node type")
}

func decodeNode(raw []byte) (interface{}, error) {
	if len(raw) < 1 {
		return nil, fmt.Errorf("mpt: empty node encoding")
	}
	switch raw[0] {
	case nodeLeaf:
		if len(raw) < 2 {
			return nil, fmt.Errorf("mpt: truncated leaf")
		}
		pl := int(raw[1])
		if len(raw) != 2+pl+types.ValueSize {
			return nil, fmt.Errorf("mpt: leaf length %d invalid", len(raw))
		}
		n := &leaf{path: append([]byte(nil), raw[2:2+pl]...)}
		copy(n.value[:], raw[2+pl:])
		return n, nil
	case nodeExtension:
		if len(raw) < 2 {
			return nil, fmt.Errorf("mpt: truncated extension")
		}
		pl := int(raw[1])
		if len(raw) != 2+pl+types.HashSize {
			return nil, fmt.Errorf("mpt: extension length %d invalid", len(raw))
		}
		n := &extension{path: append([]byte(nil), raw[2:2+pl]...)}
		copy(n.child[:], raw[2+pl:])
		return n, nil
	case nodeBranch:
		if len(raw) < 3 {
			return nil, fmt.Errorf("mpt: truncated branch")
		}
		bitmap := uint16(raw[1])<<8 | uint16(raw[2])
		n := &branch{}
		off := 3
		for i := 0; i < 16; i++ {
			if bitmap&(1<<uint(i)) == 0 {
				continue
			}
			if off+types.HashSize > len(raw) {
				return nil, fmt.Errorf("mpt: branch children truncated")
			}
			copy(n.children[i][:], raw[off:])
			off += types.HashSize
		}
		if off != len(raw) {
			return nil, fmt.Errorf("mpt: branch has %d trailing bytes", len(raw)-off)
		}
		return n, nil
	}
	return nil, fmt.Errorf("mpt: unknown node tag 0x%02x", raw[0])
}

// ---- node store ----

func nodeKey(h types.Hash) []byte { return append([]byte("n/"), h[:]...) }

// storeNode persists a node and returns its hash.
func (t *Trie) storeNode(n interface{}) (types.Hash, error) {
	raw := encodeNode(n)
	h := types.HashData(raw)
	// Content addressing dedups identical nodes; re-puts are idempotent.
	if err := t.db.Put(nodeKey(h), raw); err != nil {
		return types.Hash{}, err
	}
	t.stats.NodesWrite++
	t.cachePut(h, raw)
	return h, nil
}

func (t *Trie) loadNode(h types.Hash) (interface{}, error) {
	if raw, ok := t.cache[h]; ok {
		t.stats.CacheHits++
		return decodeNode(raw)
	}
	raw, ok, err := t.db.Get(nodeKey(h))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("mpt: missing node %v", h)
	}
	t.stats.NodesRead++
	if types.HashData(raw) != h {
		return nil, fmt.Errorf("mpt: node %v content mismatch", h)
	}
	t.cachePut(h, raw)
	return decodeNode(raw)
}

func (t *Trie) cachePut(h types.Hash, raw []byte) {
	if len(t.cache) >= t.cacheCap {
		// Random eviction: maps iterate in random order.
		for k := range t.cache {
			delete(t.cache, k)
			break
		}
	}
	t.cache[h] = raw
}

// ---- reference counting (non-persistent mode) ----

func (t *Trie) ref(h types.Hash) {
	if t.persistent || h == types.ZeroHash {
		return
	}
	t.refs[h]++
}

// deref releases one reference; nodes reaching zero are deleted and their
// children dereferenced recursively.
func (t *Trie) deref(h types.Hash) error {
	if t.persistent || h == types.ZeroHash {
		return nil
	}
	t.refs[h]--
	if t.refs[h] > 0 {
		return nil
	}
	delete(t.refs, h)
	n, err := t.loadNode(h)
	if err != nil {
		return err
	}
	if err := t.db.Delete(nodeKey(h)); err != nil {
		return err
	}
	delete(t.cache, h)
	switch nd := n.(type) {
	case *extension:
		return t.deref(nd.child)
	case *branch:
		for _, c := range nd.children {
			if c != types.ZeroHash {
				if err := t.deref(c); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Put inserts or updates an address. New nodes along the path are written;
// in persistent mode the old path remains intact (Figure 1's duplicated
// n1, n2, n4), in non-persistent mode it is dereferenced.
func (t *Trie) Put(addr types.Address, value types.Value) error {
	t.stats.Puts++
	oldRoot := t.root
	newRoot, err := t.insert(t.root, nibbles(addr), value)
	if err != nil {
		return err
	}
	t.root = newRoot
	t.ref(newRoot)
	return t.deref(oldRoot)
}

// insert returns the hash of the rewritten subtree.
//
// Reference discipline (non-persistent mode): every *created* node refs
// each of its children once; the only explicit release is Put's deref of
// the old root, whose death cascades down the superseded path, releasing
// exactly the references the old nodes held. insert itself never derefs.
// (Content-addressed dedup of identical subtrees can over-count and
// retain a shared node; that errs towards keeping data, never towards
// deleting a live node.)
func (t *Trie) insert(h types.Hash, path []byte, value types.Value) (types.Hash, error) {
	if h == types.ZeroHash {
		return t.storeNode(&leaf{path: path, value: value})
	}
	n, err := t.loadNode(h)
	if err != nil {
		return types.Hash{}, err
	}
	switch nd := n.(type) {
	case *leaf:
		if bytes.Equal(nd.path, path) {
			return t.storeNode(&leaf{path: path, value: value})
		}
		common := commonPrefix(nd.path, path)
		br := &branch{}
		oldHash, err := t.storeNode(&leaf{path: nd.path[common+1:], value: nd.value})
		if err != nil {
			return types.Hash{}, err
		}
		newHash, err := t.storeNode(&leaf{path: path[common+1:], value: value})
		if err != nil {
			return types.Hash{}, err
		}
		br.children[nd.path[common]] = oldHash
		br.children[path[common]] = newHash
		t.ref(oldHash)
		t.ref(newHash)
		brHash, err := t.storeNode(br)
		if err != nil {
			return types.Hash{}, err
		}
		if common == 0 {
			return brHash, nil
		}
		t.ref(brHash)
		return t.storeNode(&extension{path: path[:common], child: brHash})
	case *extension:
		common := commonPrefix(nd.path, path)
		if common == len(nd.path) {
			childHash, err := t.insert(nd.child, path[common:], value)
			if err != nil {
				return types.Hash{}, err
			}
			t.ref(childHash)
			return t.storeNode(&extension{path: nd.path, child: childHash})
		}
		// Split the extension at the divergence point.
		br := &branch{}
		extRemainder := nd.path[common+1:]
		oldSide := nd.child
		if len(extRemainder) > 0 {
			oldSide, err = t.storeNode(&extension{path: extRemainder, child: nd.child})
			if err != nil {
				return types.Hash{}, err
			}
			// The intermediate extension is a new logical parent of the
			// old child.
			t.ref(nd.child)
		}
		newSide, err := t.storeNode(&leaf{path: path[common+1:], value: value})
		if err != nil {
			return types.Hash{}, err
		}
		br.children[nd.path[common]] = oldSide
		br.children[path[common]] = newSide
		t.ref(oldSide)
		t.ref(newSide)
		brHash, err := t.storeNode(br)
		if err != nil {
			return types.Hash{}, err
		}
		if common == 0 {
			return brHash, nil
		}
		t.ref(brHash)
		return t.storeNode(&extension{path: path[:common], child: brHash})
	case *branch:
		idx := path[0]
		childHash, err := t.insert(nd.children[idx], path[1:], value)
		if err != nil {
			return types.Hash{}, err
		}
		nb := &branch{children: nd.children}
		nb.children[idx] = childHash
		t.ref(childHash)
		// Surviving siblings gain a reference from the new branch; the
		// old branch's references die with it.
		for i, c := range nd.children {
			if byte(i) != idx && c != types.ZeroHash {
				t.ref(c)
			}
		}
		return t.storeNode(nb)
	}
	return types.Hash{}, fmt.Errorf("mpt: unknown node type")
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// Get returns the value of addr at the current root.
func (t *Trie) Get(addr types.Address) (types.Value, bool, error) {
	return t.GetAtRoot(t.root, addr)
}

// GetAtRoot reads addr in the state committed by root (any historical
// root in persistent mode).
func (t *Trie) GetAtRoot(root types.Hash, addr types.Address) (types.Value, bool, error) {
	t.stats.Gets++
	h := root
	path := nibbles(addr)
	for {
		if h == types.ZeroHash {
			return types.Value{}, false, nil
		}
		n, err := t.loadNode(h)
		if err != nil {
			return types.Value{}, false, err
		}
		switch nd := n.(type) {
		case *leaf:
			if bytes.Equal(nd.path, path) {
				return nd.value, true, nil
			}
			return types.Value{}, false, nil
		case *extension:
			if len(path) < len(nd.path) || !bytes.Equal(path[:len(nd.path)], nd.path) {
				return types.Value{}, false, nil
			}
			path = path[len(nd.path):]
			h = nd.child
		case *branch:
			if len(path) == 0 {
				return types.Value{}, false, nil
			}
			h = nd.children[path[0]]
			path = path[1:]
		}
	}
}

// Stats returns trie counters.
func (t *Trie) Stats() Stats { return t.stats }
