package chain

import (
	"encoding/binary"
	"fmt"

	"cole/internal/cmi"
	"cole/internal/core"
	"cole/internal/kvstore"
	"cole/internal/lipp"
	"cole/internal/mpt"
	"cole/internal/shard"
	"cole/internal/types"
)

// blockOverlay gives the COLE backend read-your-writes inside an open
// block: store reads are snapshot-isolated at the last commit, so the
// executor's intra-block reads (a transfer reading a balance an earlier
// transaction in the same block wrote) are served from this overlay while
// everything else comes from a snapshot pinned at BeginBlock. The engine
// receives exactly the same Put sequence as before, so headers are
// byte-identical to the pre-snapshot read path.
type blockOverlay struct {
	writes map[types.Address]types.Value
}

func newBlockOverlay() *blockOverlay {
	return &blockOverlay{writes: make(map[types.Address]types.Value)}
}

func (o *blockOverlay) reset()                                  { clear(o.writes) }
func (o *blockOverlay) put(a types.Address, v types.Value)      { o.writes[a] = v }
func (o *blockOverlay) get(a types.Address) (types.Value, bool) { v, ok := o.writes[a]; return v, ok }

// ColeBackend adapts a COLE store (sync or async merge, any shard count)
// to StateBackend. Each block executes over a Snapshot pinned at
// BeginBlock (lock-free, stable reads while background merges run) plus
// the block's own write overlay.
type ColeBackend struct {
	Store   *shard.Store
	snap    *shard.Snapshot
	overlay *blockOverlay
}

// OpenCole opens a COLE backend with opts.Shards partitions.
func OpenCole(opts core.Options) (*ColeBackend, error) {
	s, err := shard.Open(opts)
	if err != nil {
		return nil, err
	}
	return &ColeBackend{Store: s, overlay: newBlockOverlay()}, nil
}

// BeginBlock implements StateBackend: it pins the pre-block snapshot all
// of the block's reads are served from.
func (b *ColeBackend) BeginBlock(h uint64) error {
	// No stale snapshot can be pinned here: Commit releases it whatever
	// its outcome, so b.snap is non-nil only while a block is open — and
	// then the store rejects the nested BeginBlock below, keeping the
	// active block's pin (and its isolation) intact.
	if err := b.Store.BeginBlock(h); err != nil {
		return err
	}
	b.releaseSnap()
	b.snap = b.Store.Snapshot()
	b.overlay.reset()
	return nil
}

func (b *ColeBackend) releaseSnap() {
	if b.snap != nil {
		b.snap.Release()
		b.snap = nil
	}
}

// Put implements StateBackend.
func (b *ColeBackend) Put(addr types.Address, v types.Value) error {
	if err := b.Store.Put(addr, v); err != nil {
		return err
	}
	b.overlay.put(addr, v)
	return nil
}

// Get implements StateBackend: the open block's own writes win, then the
// pinned pre-block snapshot (or the live store view between blocks).
func (b *ColeBackend) Get(addr types.Address) (types.Value, bool, error) {
	if v, ok := b.overlay.get(addr); ok {
		return v, true, nil
	}
	if b.snap != nil {
		return b.snap.Get(addr)
	}
	return b.Store.Get(addr)
}

// Commit implements StateBackend. The overlay is dropped whatever the
// outcome: on success the store serves the block's writes, and on error
// between-block Gets must not keep serving values that never committed.
func (b *ColeBackend) Commit() (types.Hash, error) {
	root, err := b.Store.Commit()
	b.releaseSnap()
	b.overlay.reset()
	return root, err
}

// Close implements StateBackend.
func (b *ColeBackend) Close() error {
	b.releaseSnap()
	return b.Store.Close()
}

// MPTBackend adapts the persistent Merkle Patricia Trie baseline.
type MPTBackend struct {
	DB      *kvstore.DB
	Trie    *mpt.Trie
	History *mpt.History
	height  uint64
	open    bool
}

// OpenMPT creates an MPT backend over a fresh or existing kvstore.
func OpenMPT(kvOpts kvstore.Options) (*MPTBackend, error) {
	db, err := kvstore.Open(kvOpts)
	if err != nil {
		return nil, err
	}
	tr := mpt.New(db, true)
	return &MPTBackend{DB: db, Trie: tr, History: mpt.NewHistory(tr)}, nil
}

// BeginBlock implements StateBackend.
func (b *MPTBackend) BeginBlock(h uint64) error {
	if b.open {
		return fmt.Errorf("chain: block %d still open", b.height)
	}
	b.height = h
	b.open = true
	return nil
}

// Put implements StateBackend.
func (b *MPTBackend) Put(addr types.Address, v types.Value) error { return b.Trie.Put(addr, v) }

// Get implements StateBackend.
func (b *MPTBackend) Get(addr types.Address) (types.Value, bool, error) { return b.Trie.Get(addr) }

// Commit implements StateBackend.
func (b *MPTBackend) Commit() (types.Hash, error) {
	if !b.open {
		return types.Hash{}, fmt.Errorf("chain: commit without block")
	}
	b.open = false
	if err := b.History.CommitBlock(b.height); err != nil {
		return types.Hash{}, err
	}
	return b.Trie.Root(), nil
}

// Close implements StateBackend.
func (b *MPTBackend) Close() error { return b.DB.Close() }

// LIPPBackend adapts the LIPP baseline: a persisted learned index with
// per-block roots.
type LIPPBackend struct {
	DB     *kvstore.DB
	Tree   *lipp.Tree
	height uint64
	open   bool
}

// OpenLIPP creates a LIPP backend.
func OpenLIPP(kvOpts kvstore.Options) (*LIPPBackend, error) {
	db, err := kvstore.Open(kvOpts)
	if err != nil {
		return nil, err
	}
	return &LIPPBackend{DB: db, Tree: lipp.New(db)}, nil
}

// BeginBlock implements StateBackend.
func (b *LIPPBackend) BeginBlock(h uint64) error {
	if b.open {
		return fmt.Errorf("chain: block %d still open", b.height)
	}
	b.height = h
	b.open = true
	return nil
}

// Put implements StateBackend.
func (b *LIPPBackend) Put(addr types.Address, v types.Value) error { return b.Tree.Put(addr, v) }

// Get implements StateBackend.
func (b *LIPPBackend) Get(addr types.Address) (types.Value, bool, error) { return b.Tree.Get(addr) }

// Commit implements StateBackend.
func (b *LIPPBackend) Commit() (types.Hash, error) {
	if !b.open {
		return types.Hash{}, fmt.Errorf("chain: commit without block")
	}
	b.open = false
	root := b.Tree.Root()
	var k [10]byte
	copy(k[:], "r/")
	binary.BigEndian.PutUint64(k[2:], b.height)
	if err := b.DB.Put(k[:], root[:]); err != nil {
		return types.Hash{}, err
	}
	return root, nil
}

// RootAt returns the persisted root of a block (provenance entry point).
func (b *LIPPBackend) RootAt(h uint64) (types.Hash, bool, error) {
	var k [10]byte
	copy(k[:], "r/")
	binary.BigEndian.PutUint64(k[2:], h)
	raw, ok, err := b.DB.Get(k[:])
	if err != nil || !ok {
		return types.Hash{}, ok, err
	}
	var out types.Hash
	copy(out[:], raw)
	return out, true, nil
}

// Close implements StateBackend.
func (b *LIPPBackend) Close() error { return b.DB.Close() }

// CMIBackend adapts the column-based Merkle index baseline.
type CMIBackend struct {
	DB     *kvstore.DB
	Store  *cmi.Store
	height uint64
	open   bool
}

// OpenCMI creates a CMI backend.
func OpenCMI(kvOpts kvstore.Options) (*CMIBackend, error) {
	db, err := kvstore.Open(kvOpts)
	if err != nil {
		return nil, err
	}
	return &CMIBackend{DB: db, Store: cmi.New(db)}, nil
}

// BeginBlock implements StateBackend.
func (b *CMIBackend) BeginBlock(h uint64) error {
	if b.open {
		return fmt.Errorf("chain: block %d still open", b.height)
	}
	b.height = h
	b.open = true
	return nil
}

// Put implements StateBackend.
func (b *CMIBackend) Put(addr types.Address, v types.Value) error {
	return b.Store.Put(addr, b.height, v)
}

// Get implements StateBackend.
func (b *CMIBackend) Get(addr types.Address) (types.Value, bool, error) { return b.Store.Get(addr) }

// Commit implements StateBackend.
func (b *CMIBackend) Commit() (types.Hash, error) {
	if !b.open {
		return types.Hash{}, fmt.Errorf("chain: commit without block")
	}
	b.open = false
	return b.Store.Root(), nil
}

// Close implements StateBackend.
func (b *CMIBackend) Close() error { return b.DB.Close() }
