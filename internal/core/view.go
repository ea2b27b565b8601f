package core

import (
	"sync/atomic"
	"time"

	"cole/internal/bloom"
	"cole/internal/mbtree"
	"cole/internal/obs"
	"cole/internal/run"
	"cole/internal/types"
)

// This file implements the engine's immutable, atomically-published read
// path: every commit (and FlushAll) builds a copy-on-write `view` of the
// whole structure — frozen L0 snapshots plus the committed run list in
// canonical search order — and publishes it through an atomic pointer.
// Get/GetAt/GetBatch/ProvQuery acquire the current view with two atomic
// operations, search it without ever touching the engine mutex, and
// release it. Runs retired by a merge are reference-counted: their files
// are unlinked only when the last view that can still see them is
// released, so readers never observe a use-after-delete.

// runRef wraps an immutable on-disk run with a reference count: one
// reference for the engine structure while the run is live, plus one per
// published view that includes it. When a merge retires the run, the
// structure reference is dropped and `retired` is set; the run's files
// are removed when the count reaches zero (i.e. after the last in-flight
// reader releases its view).
type runRef struct {
	r       *run.Run
	refs    atomic.Int64
	retired atomic.Bool
}

func newRunRef(r *run.Run) *runRef {
	rr := &runRef{r: r}
	rr.refs.Store(1) // the engine structure's reference
	return rr
}

func (rr *runRef) acquire() { rr.refs.Add(1) }

// release drops one reference; the zero-crossing holder reclaims the
// files of a retired run. A live (non-retired) run can never reach zero:
// the structure holds a reference until retirement.
func (rr *runRef) release() {
	if rr.refs.Add(-1) == 0 && rr.retired.Load() {
		_ = rr.r.Remove()
	}
}

// memView is one frozen L0 group as seen by a view: a copy-on-write
// snapshot of the MB-tree (hashes warmed, so every read on it — including
// ProveRange — is pure) and an immutable Bloom filter.
type memView struct {
	tree   *mbtree.Tree
	filter *bloom.Filter
}

// view is one published, immutable snapshot of the engine: everything a
// reader needs, in canonical search order (Algorithm 6), which is also
// the root_hash_list order — so proofs built from a view verify against
// its root digest.
type view struct {
	refs      atomic.Int64
	reclaimed atomic.Bool
	// height is the committed block height this view reflects.
	height uint64
	// root is the Hstate digest of exactly this component set.
	root types.Hash
	// mems holds the L0 groups (writing, then merging in async mode).
	mems []*memView
	// runs holds every committed run, flattened across levels in search
	// order: per level the writing group newest-first, then (async) the
	// merging group newest-first.
	runs []*runRef
}

// release drops one reference to the view; the zero-crossing holder
// releases the view's run references exactly once. (A reader's
// acquire-validate-retry in acquireView can transiently re-raise the
// count from zero, hence the CAS guard.)
func (v *view) release() {
	if v.refs.Add(-1) > 0 {
		return
	}
	if v.reclaimed.CompareAndSwap(false, true) {
		for _, rr := range v.runs {
			rr.release()
		}
	}
}

// acquireView pins the currently-published view: load, increment, and
// validate that the pointer has not moved (if it has, the publisher may
// already have dropped its reference, so back off and retry). Lock-free:
// two atomic loads and one add on the happy path.
func (e *Engine) acquireView() *view {
	for {
		v := e.viewPtr.Load()
		v.refs.Add(1)
		if e.viewPtr.Load() == v {
			return v
		}
		v.release()
	}
}

// publishLocked turns the hash list of the current structure into a view
// and swaps it in, releasing the publisher reference of the previous
// view. Caller holds e.mu and passes a list assembled since the last
// structural change or Put: assembling it warmed the L0 root hashes, so
// the frozen snapshots are clean and reader operations on them never
// write a hash cache.
func (e *Engine) publishLocked(hl hashList) {
	v := &view{height: e.committed, root: hl.root, runs: hl.runs}
	v.refs.Store(1) // the publisher's reference
	for _, rr := range v.runs {
		rr.acquire()
	}
	// The writing group keeps absorbing Puts after publication: snapshot
	// its tree (O(1), copy-on-write) and clone its filter. The merging
	// group is shared as-is: it stays frozen for its whole lifetime —
	// cascadeAsync installs a fresh group into the slot before promoting
	// it back to the writing role, so a group object published here never
	// absorbs Puts while views still hold it.
	wg := e.mem[e.memWriting]
	v.mems = append(v.mems, &memView{tree: wg.tree.Snapshot(), filter: wg.filter.Clone()})
	if e.opts.AsyncMerge {
		mg := e.mem[1-e.memWriting]
		v.mems = append(v.mems, &memView{tree: mg.tree, filter: mg.filter})
	}
	if old := e.viewPtr.Swap(v); old != nil {
		old.release()
	}
	if e.tr != nil {
		e.trace(obs.EvViewPublish, -1, 0, v.height, 0)
	}
}

// runsOf unwraps a ref slice for the merge iterators and builders.
func runsOf(refs []*runRef) []*run.Run {
	out := make([]*run.Run, len(refs))
	for i, rr := range refs {
		out[i] = rr.r
	}
	return out
}

// Snapshot is a pinned, immutable read handle on one published view: all
// reads through it observe the same committed block height, concurrently
// with commits, merges, and other readers, without any engine lock. A
// Snapshot must be Released (idempotent) so retired run files can be
// reclaimed.
type Snapshot struct {
	e        *Engine
	v        *view
	released atomic.Bool
}

// Snapshot pins the engine's current read view.
func (e *Engine) Snapshot() *Snapshot {
	return &Snapshot{e: e, v: e.acquireView()}
}

// ViewRoot returns the Hstate digest of the currently-published read view
// (the root of the last committed block) without taking the engine lock.
func (e *Engine) ViewRoot() types.Hash {
	v := e.acquireView()
	defer v.release()
	return v.root
}

// Height returns the committed block height the snapshot observes.
func (s *Snapshot) Height() uint64 { return s.v.height }

// Root returns the Hstate digest the snapshot's reads (and proofs) are
// consistent with.
func (s *Snapshot) Root() types.Hash { return s.v.root }

// Get returns the latest value of addr as of the snapshot's height.
func (s *Snapshot) Get(addr types.Address) (types.Value, bool, error) {
	start := time.Now()
	s.e.gets.Add(1)
	hit, ok, err := s.e.lookupInView(s.v, addr, types.MaxBlock)
	s.e.hists.Get.Record(time.Since(start))
	return hit.Value, ok, err
}

// GetAt returns the value of addr active at block height blk (≤ the
// snapshot height) and the height it was written at.
func (s *Snapshot) GetAt(addr types.Address, blk uint64) (types.Value, uint64, bool, error) {
	start := time.Now()
	s.e.gets.Add(1)
	hit, ok, err := s.e.lookupInView(s.v, addr, blk)
	s.e.hists.Get.Record(time.Since(start))
	return hit.Value, hit.Blk, ok, err
}

// GetBatch resolves many point lookups against the one pinned view.
func (s *Snapshot) GetBatch(addrs []types.Address) ([]ReadResult, error) {
	return s.e.getBatchInView(s.v, addrs)
}

// ProvQuery answers a provenance query against the snapshot's state; the
// proof verifies against Root().
func (s *Snapshot) ProvQuery(addr types.Address, blkLo, blkHi uint64) ([]Version, *Proof, error) {
	return s.e.provInView(s.v, addr, blkLo, blkHi)
}

// Release unpins the snapshot. Safe to call more than once.
func (s *Snapshot) Release() {
	if s.released.CompareAndSwap(false, true) {
		s.v.release()
	}
}
