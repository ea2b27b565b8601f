// Package lipp implements the paper's LIPP baseline (§8.1.1): the updatable
// learned index with precise positions [54], applied to blockchain storage
// *without* COLE's column-based design, and with the node-persistence
// strategy MPT uses so historical roots stay traversable.
//
// Each node carries a linear model mapping keys to slots; a slot is empty,
// holds an entry, or points to a child node created when two keys collide.
// Nodes are content-addressed in the kvstore and copied on write, so every
// block persists a fresh copy of every node on each update path — and
// learned nodes are *large* (slot arrays sized to the data), which is
// precisely why the paper measures LIPP storage at 5–31× MPT's and finds
// it cannot scale past ~10^2–10^3 blocks. This module reproduces that
// pathology honestly rather than optimizing it away.
//
// Simplifications vs. full LIPP: the conflict-resolution and node-rebuild
// policies are reduced to (a) child creation on collision and (b)
// whole-tree rebuild when occupancy exceeds one half — neither changes the
// two properties the evaluation depends on (big persisted nodes, per-update
// path copies).
package lipp

import (
	"encoding/binary"
	"fmt"
	"math"

	"cole/internal/kvstore"
	"cole/internal/types"
)

const (
	slotEmpty = 0x00
	slotEntry = 0x01
	slotChild = 0x02

	rootInitialSlots = 64
	childSlots       = 8
	// gamma is the slot head-room applied at a rebuild: occupancy drops to
	// 1/gamma, so the tree doubles in size before the next rebuild (a
	// rebuild-per-insert would otherwise follow immediately).
	gamma = 4
)

// Tree is a LIPP-style learned index over addresses.
type Tree struct {
	db    *kvstore.DB
	root  types.Hash
	count int
	cache map[types.Hash]*node
	stats Stats
}

// Stats counts tree operations.
type Stats struct {
	Puts       int64
	Gets       int64
	NodesWrite int64
	NodesRead  int64
	Rebuilds   int64
}

type entry struct {
	addr  types.Address
	value types.Value
}

type slot struct {
	kind  byte
	ent   entry
	child types.Hash
}

type node struct {
	kmin  float64 // model domain start
	slope float64 // slots per key unit
	slots []slot
}

// New creates a LIPP tree over db.
func New(db *kvstore.DB) *Tree {
	return &Tree{db: db, cache: map[types.Hash]*node{}}
}

// Root returns the current root hash (ZeroHash when empty).
func (t *Tree) Root() types.Hash { return t.root }

// Count returns the number of stored addresses.
func (t *Tree) Count() int { return t.count }

// Stats returns counters.
func (t *Tree) Stats() Stats { return t.stats }

func keyFloat(a types.Address) float64 {
	return types.U256FromKey(types.CompoundKey{Addr: a}).Float64()
}

func (n *node) predict(k float64) int {
	p := (k - n.kmin) * n.slope
	if math.IsNaN(p) || p <= 0 {
		return 0
	}
	if p >= float64(len(n.slots)-1) {
		return len(n.slots) - 1
	}
	return int(p)
}

// ---- node persistence ----

func nodeKey(h types.Hash) []byte { return append([]byte("l/"), h[:]...) }

func encode(n *node) []byte {
	out := make([]byte, 0, 20+len(n.slots))
	var f [8]byte
	binary.BigEndian.PutUint64(f[:], math.Float64bits(n.kmin))
	out = append(out, f[:]...)
	binary.BigEndian.PutUint64(f[:], math.Float64bits(n.slope))
	out = append(out, f[:]...)
	binary.BigEndian.PutUint32(f[:4], uint32(len(n.slots)))
	out = append(out, f[:4]...)
	for _, s := range n.slots {
		out = append(out, s.kind)
		switch s.kind {
		case slotEntry:
			out = append(out, s.ent.addr[:]...)
			out = append(out, s.ent.value[:]...)
		case slotChild:
			out = append(out, s.child[:]...)
		}
	}
	return out
}

func decode(raw []byte) (*node, error) {
	if len(raw) < 20 {
		return nil, fmt.Errorf("lipp: truncated node")
	}
	n := &node{
		kmin:  math.Float64frombits(binary.BigEndian.Uint64(raw[0:8])),
		slope: math.Float64frombits(binary.BigEndian.Uint64(raw[8:16])),
	}
	cnt := int(binary.BigEndian.Uint32(raw[16:20]))
	if cnt < 1 || cnt > 1<<28 {
		return nil, fmt.Errorf("lipp: implausible slot count %d", cnt)
	}
	n.slots = make([]slot, cnt)
	off := 20
	for i := 0; i < cnt; i++ {
		if off >= len(raw) {
			return nil, fmt.Errorf("lipp: slots truncated")
		}
		kind := raw[off]
		off++
		switch kind {
		case slotEmpty:
			n.slots[i] = slot{kind: slotEmpty}
		case slotEntry:
			if off+types.AddressSize+types.ValueSize > len(raw) {
				return nil, fmt.Errorf("lipp: entry truncated")
			}
			var e entry
			copy(e.addr[:], raw[off:])
			off += types.AddressSize
			copy(e.value[:], raw[off:])
			off += types.ValueSize
			n.slots[i] = slot{kind: slotEntry, ent: e}
		case slotChild:
			if off+types.HashSize > len(raw) {
				return nil, fmt.Errorf("lipp: child truncated")
			}
			s := slot{kind: slotChild}
			copy(s.child[:], raw[off:])
			off += types.HashSize
			n.slots[i] = s
		default:
			return nil, fmt.Errorf("lipp: unknown slot kind 0x%02x", kind)
		}
	}
	return n, nil
}

func (t *Tree) store(n *node) (types.Hash, error) {
	raw := encode(n)
	h := types.HashData(raw)
	if err := t.db.Put(nodeKey(h), raw); err != nil {
		return types.Hash{}, err
	}
	t.stats.NodesWrite++
	if len(t.cache) > 1024 {
		for k := range t.cache {
			delete(t.cache, k)
			break
		}
	}
	t.cache[h] = n
	return h, nil
}

func (t *Tree) load(h types.Hash) (*node, error) {
	if n, ok := t.cache[h]; ok {
		return n, nil
	}
	raw, ok, err := t.db.Get(nodeKey(h))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("lipp: missing node %v", h)
	}
	t.stats.NodesRead++
	n, err := decode(raw)
	if err != nil {
		return nil, err
	}
	t.cache[h] = n
	return n, nil
}

// Put inserts or updates an address. The whole path (often just the huge
// root) is re-persisted.
func (t *Tree) Put(addr types.Address, value types.Value) error {
	t.stats.Puts++
	if t.root == types.ZeroHash {
		n := &node{kmin: keyFloat(addr), slope: 0, slots: make([]slot, rootInitialSlots)}
		n.slots[0] = slot{kind: slotEntry, ent: entry{addr: addr, value: value}}
		h, err := t.store(n)
		if err != nil {
			return err
		}
		t.root = h
		t.count = 1
		return nil
	}
	newRoot, added, err := t.insert(t.root, addr, value, 0)
	if err != nil {
		return err
	}
	t.root = newRoot
	if added {
		t.count++
	}
	// Rebuild when the root is crowded: LIPP's node adjustment, reduced
	// to a full refit.
	rootNode, err := t.load(t.root)
	if err != nil {
		return err
	}
	if t.count*2 > len(rootNode.slots) {
		return t.rebuild()
	}
	return nil
}

func (t *Tree) insert(h types.Hash, addr types.Address, value types.Value, depth int) (types.Hash, bool, error) {
	n, err := t.load(h)
	if err != nil {
		return types.Hash{}, false, err
	}
	k := keyFloat(addr)
	idx := n.predict(k)
	cp := &node{kmin: n.kmin, slope: n.slope, slots: append([]slot(nil), n.slots...)}
	switch n.slots[idx].kind {
	case slotEmpty:
		cp.slots[idx] = slot{kind: slotEntry, ent: entry{addr: addr, value: value}}
		nh, err := t.store(cp)
		return nh, true, err
	case slotEntry:
		old := n.slots[idx].ent
		if old.addr == addr {
			cp.slots[idx] = slot{kind: slotEntry, ent: entry{addr: addr, value: value}}
			nh, err := t.store(cp)
			return nh, false, err
		}
		childHash, err := t.makeChild(old, entry{addr: addr, value: value}, depth+1)
		if err != nil {
			return types.Hash{}, false, err
		}
		cp.slots[idx] = slot{kind: slotChild, child: childHash}
		nh, err := t.store(cp)
		return nh, true, err
	case slotChild:
		childHash, added, err := t.insert(n.slots[idx].child, addr, value, depth+1)
		if err != nil {
			return types.Hash{}, false, err
		}
		cp.slots[idx] = slot{kind: slotChild, child: childHash}
		nh, err := t.store(cp)
		return nh, added, err
	}
	return types.Hash{}, false, fmt.Errorf("lipp: corrupt slot kind")
}

// makeChild builds a node separating two colliding entries. When their
// float keys coincide (indistinguishable to the model) the node degrades
// to sequential placement, which lookups handle by scanning.
func (t *Tree) makeChild(a, b entry, depth int) (types.Hash, error) {
	ka, kb := keyFloat(a.addr), keyFloat(b.addr)
	if ka > kb {
		a, b = b, a
		ka, kb = kb, ka
	}
	n := &node{kmin: ka, slots: make([]slot, childSlots)}
	if kb > ka {
		n.slope = float64(childSlots-1) / (kb - ka)
	}
	ia, ib := n.predict(ka), n.predict(kb)
	if ia == ib {
		// Degenerate: place sequentially.
		n.slope = 0
		n.slots[0] = slot{kind: slotEntry, ent: a}
		n.slots[1] = slot{kind: slotEntry, ent: b}
	} else {
		n.slots[ia] = slot{kind: slotEntry, ent: a}
		n.slots[ib] = slot{kind: slotEntry, ent: b}
	}
	return t.store(n)
}

// rebuild refits the root model over all entries (γ slots per entry).
func (t *Tree) rebuild() error {
	t.stats.Rebuilds++
	var entries []entry
	if err := t.collect(t.root, &entries); err != nil {
		return err
	}
	if len(entries) == 0 {
		t.root = types.ZeroHash
		return nil
	}
	kmin, kmax := math.Inf(1), math.Inf(-1)
	for _, e := range entries {
		k := keyFloat(e.addr)
		if k < kmin {
			kmin = k
		}
		if k > kmax {
			kmax = k
		}
	}
	nslots := gamma*len(entries) + 1
	n := &node{kmin: kmin, slots: make([]slot, nslots)}
	if kmax > kmin {
		n.slope = float64(nslots-1) / (kmax - kmin)
	}
	// Place entries; collisions spawn children.
	root, err := t.store(n)
	if err != nil {
		return err
	}
	t.root = root
	t.count = 0
	for _, e := range entries {
		newRoot, added, err := t.insert(t.root, e.addr, e.value, 0)
		if err != nil {
			return err
		}
		t.root = newRoot
		if added {
			t.count++
		}
	}
	return nil
}

func (t *Tree) collect(h types.Hash, out *[]entry) error {
	if h == types.ZeroHash {
		return nil
	}
	n, err := t.load(h)
	if err != nil {
		return err
	}
	for _, s := range n.slots {
		switch s.kind {
		case slotEntry:
			*out = append(*out, s.ent)
		case slotChild:
			if err := t.collect(s.child, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// Get returns the latest value of addr.
func (t *Tree) Get(addr types.Address) (types.Value, bool, error) {
	return t.GetAtRoot(t.root, addr)
}

// GetAtRoot reads addr in a historical root (nodes are persisted, so any
// recorded root remains traversable).
func (t *Tree) GetAtRoot(root types.Hash, addr types.Address) (types.Value, bool, error) {
	t.stats.Gets++
	h := root
	for {
		if h == types.ZeroHash {
			return types.Value{}, false, nil
		}
		n, err := t.load(h)
		if err != nil {
			return types.Value{}, false, err
		}
		idx := n.predict(keyFloat(addr))
		s := n.slots[idx]
		if n.slope == 0 {
			// Degenerate node: scan.
			for _, ss := range n.slots {
				if ss.kind == slotEntry && ss.ent.addr == addr {
					return ss.ent.value, true, nil
				}
			}
			// fall through to the predicted slot for child chains
			s = n.slots[idx]
		}
		switch s.kind {
		case slotEmpty:
			return types.Value{}, false, nil
		case slotEntry:
			if s.ent.addr == addr {
				return s.ent.value, true, nil
			}
			return types.Value{}, false, nil
		case slotChild:
			h = s.child
		}
	}
}
