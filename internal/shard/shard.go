// Package shard is the COLE store every consumer opens: it partitions the
// address space across N ≥ 1 independent core.Engine instances and commits
// them in parallel.
//
// A single engine serializes its whole write path behind one mutex, so at
// commit time the flush/merge cascade of a busy block runs alone on one
// core. Sharding hash-splits the 20-byte address space into N partitions,
// each backed by its own engine in its own subdirectory; BeginBlock/Put
// route to the owning partition and Commit runs all per-shard commits in
// parallel goroutines. The block header digest becomes a deterministic
// combination of the per-shard Hstate roots, gathered in shard-index
// order so goroutine completion order never changes the result.
//
// Provenance proofs stay per-shard: a query is answered by the owning
// engine's Proof plus the full list of shard roots, and verification
// recombines the roots, checks them against the published digest, and
// then verifies the inner proof against the owning shard's root. With
// Shards = 1 the combined digest is defined to *be* the single engine's
// Hstate, so a one-shard store is byte-compatible with an unsharded one
// (same directory layout, same digests, same proofs).
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"cole/internal/core"
	"cole/internal/merge"
	"cole/internal/mht"
	"cole/internal/obs"
	"cole/internal/pagefile"
	"cole/internal/run"
	"cole/internal/types"
	"cole/internal/vfs"
)

// MaxShards bounds the shard count; beyond this the per-shard memory and
// file-handle overhead dwarfs any commit parallelism.
const MaxShards = 256

// ShardRootFanout is the arity of the Merkle tree that folds per-shard
// roots into the combined digest. The paper's best MHT fanout (m = 4)
// works here too: proofs carry at most (m−1)·⌈log_m N⌉ sibling hashes.
const ShardRootFanout = 4

// rootDomain prefixes the combined-root hash so a multi-shard digest can
// never collide with a single engine's root_hash_list hash over the same
// component hashes. v2: the shard roots are folded through an m-ary
// Merkle tree (proofs carry O(log N) siblings) instead of hashed flat.
var rootDomain = []byte("COLE-SHARD-ROOTS/v2\x00")

// ShardOf routes an address to its owning partition: 64-bit FNV-1a over
// the 20 address bytes, mod n. Deterministic across processes and
// platforms. The loop is inline because every read routes through it:
// no hasher object, whatever the toolchain makes of hash/fnv's.
func ShardOf(addr types.Address, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for _, b := range addr {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return int(h % uint64(n))
}

// CombineRoots folds per-shard Hstate roots (shard-index order) into the
// block-header digest: a ShardRootFanout-ary Merkle tree over the roots,
// domain-separated from every other hash in the system. Proofs against
// the combined digest therefore carry a logarithmic Merkle path (see
// Proof.Path) rather than all N−1 sibling roots. One shard combines to
// its root unchanged, which is what makes Shards=1 byte-compatible with
// an unsharded engine.
func CombineRoots(roots []types.Hash) types.Hash {
	if len(roots) == 1 {
		return roots[0]
	}
	top := mht.RootOf(roots, ShardRootFanout)
	return types.HashData(rootDomain, top[:])
}

// Store is the COLE store: N ≥ 1 engines behind one block interface.
type Store struct {
	opts core.Options
	n    int
	gen  uint64 // reshard generation the open layout was pinned at
	// sched is the single merge pool every shard's background flush and
	// merge jobs run on, so the aggregate merge concurrency is bounded by
	// Options.MergeWorkers regardless of the shard count.
	sched *merge.Scheduler
	// cache is the single page cache every shard's point reads go
	// through: the store's memory for cached value pages is one
	// core.PageCacheBytes budget regardless of shard and run counts.
	cache *pagefile.Cache

	// unlock releases the directory's advisory flock (held from Open to
	// Close so concurrent opens and offline reshards fail loudly).
	unlock func()

	// unregister removes the store's shared merge pool from the metrics
	// registry (each engine registers — and unregisters — itself).
	unregister func()

	// mu serializes block lifecycle against reads: BeginBlock, Commit,
	// FlushAll and Close take the write lock; Put and queries take the
	// read lock (each engine still has its own internal mutex).
	mu      sync.RWMutex
	engines []*core.Engine
	allIdx  []int // 0..n-1, the runShards fan-out list
	inBlock bool
	height  uint64
	// active flags which shards participate in the open block. During
	// normal operation all do; during post-crash replay a shard whose
	// checkpoint already covers the replayed height is skipped, so blocks
	// between the minimum and maximum shard checkpoints can be re-executed
	// without double-applying writes.
	active []bool
}

// shardManifest pins the partition layout of a store directory: the
// shard count and the reshard generation. Generation 0 is the layout a
// store is created with (engines at the directory root or in shard-NN
// subdirectories); every offline reshard installs its rebuilt engines
// under a fresh generation subdirectory and bumps Gen by atomically
// rewriting this file — the rename is the reshard's single commit point.
type shardManifest struct {
	Shards int    `json:"shards"`
	Gen    uint64 `json:"gen,omitempty"`
}

const manifestName = "SHARDS"

// lockName is the advisory lock file LockDir flocks (see lock_unix.go).
const lockName = "LOCK"

// genDirName is the directory one reshard generation's engines live in.
func genDirName(gen uint64) string { return fmt.Sprintf("r%06d", gen) }

var genDirPattern = regexp.MustCompile(`^r[0-9]{6}$`)

// EngineDir returns the directory of shard i in a store of n shards at
// the given reshard generation. Generation 0 keeps the original layout
// (a single engine lives directly in dir, multiple shards in
// dir/shard-NN); resharded generations always nest under the generation
// directory, even with one shard, so a reshard never collides with live
// paths and commits by rewriting the SHARDS file alone.
func EngineDir(dir string, gen uint64, n, i int) string {
	if gen == 0 {
		if n == 1 {
			return dir
		}
		return filepath.Join(dir, fmt.Sprintf("shard-%02d", i))
	}
	return filepath.Join(dir, genDirName(gen), fmt.Sprintf("shard-%02d", i))
}

// GenDir returns the root of a reshard generation's build tree (the
// directory EngineDir nests under for gen > 0); internal/reshard builds
// the next generation inside it before committing the SHARDS file.
func GenDir(dir string, gen uint64) string { return filepath.Join(dir, genDirName(gen)) }

// Open creates or reopens a store in opts.Dir. opts.Shards selects the
// partition count: 0 adopts the count persisted in the directory's SHARDS
// file (1 for a fresh directory or a legacy one — an engine at the root
// with no SHARDS file, which Open pins as a one-shard store), and an
// explicit count must match the persisted one on reopen. With one shard
// the engine lives directly in opts.Dir; with more, each shard i lives in
// opts.Dir/shard-NN. The directory's advisory lock is held until Close,
// so concurrent opens and offline reshards fail loudly.
func Open(opts core.Options) (*Store, error) { return open(opts, nil) }

// open is Open over a given page cache (nil = the standard one); tests
// pass tiny ones to force misses and recycling.
func open(opts core.Options, cache *pagefile.Cache) (*Store, error) {
	n := opts.Shards
	if n < 0 || n > MaxShards {
		return nil, fmt.Errorf("shard: Shards %d out of range [0,%d]", n, MaxShards)
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("shard: Options.Dir is required")
	}
	fsys := vfs.OrOS(opts.FS)
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	// The advisory flock guards against concurrent *processes*; an
	// injected filesystem is process-local, so there is nothing for the
	// kernel lock to arbitrate (and no real directory to flock).
	unlock := func() {}
	if vfs.IsOS(fsys) {
		var lerr error
		unlock, lerr = LockDir(opts.Dir)
		if lerr != nil {
			return nil, lerr
		}
	}
	ok := false
	defer func() {
		if !ok {
			unlock()
		}
	}()
	persisted, gen, pinned, err := PersistedLayout(fsys, opts.Dir)
	if err != nil {
		return nil, err
	}
	switch {
	case n == 0 && pinned:
		n = persisted
	case n == 0:
		n = 1
	case pinned && persisted != n:
		return nil, fmt.Errorf("shard: store was created with %d shards, reopened with %d", persisted, n)
	}
	if !pinned && n > 1 {
		// No SHARDS file but an engine manifest in the root: a legacy
		// unsharded store. Splitting it would silently hide the existing
		// data under empty shard subdirectories.
		if _, serr := fsys.Stat(filepath.Join(opts.Dir, "MANIFEST")); serr == nil {
			return nil, fmt.Errorf("shard: %s holds an unsharded store; it cannot be reopened with Shards=%d", opts.Dir, n)
		}
	}
	if !pinned && n == 1 {
		// The mirror image: shard subdirectories without a SHARDS file
		// (lost in a partial copy, or a crash between shard creation and
		// the manifest write). Opening a fresh engine in the root would
		// hide the shard data; an explicit matching Shards count re-pins.
		if err := guardOrphanedShards(fsys, opts.Dir); err != nil {
			return nil, err
		}
	}
	if pinned {
		// The SHARDS file authoritatively names the live generation, so
		// leftovers of interrupted or committed reshards (stale generation
		// directories, superseded generation-0 engines) are swept here.
		sweepStaleGenerations(fsys, opts.Dir, gen)
	}
	if cache == nil {
		cache = core.NewPageCache(opts.PageSize)
	}
	s := &Store{opts: opts, n: n, gen: gen, sched: merge.New(opts.MergeWorkers), cache: cache, active: make([]bool, n)}
	for i := 0; i < n; i++ {
		s.allIdx = append(s.allIdx, i)
		eo := opts
		eo.Shards = 1
		eo.Dir = EngineDir(opts.Dir, gen, n, i)
		e, err := core.OpenShared(eo, s.sched, s.cache, i)
		if err != nil {
			for _, prev := range s.engines {
				_ = prev.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, stampShard(err, i))
		}
		s.engines = append(s.engines, e)
	}
	if !pinned {
		if err := InstallManifest(fsys, opts.Dir, n, 0); err != nil {
			for _, e := range s.engines {
				_ = e.Close()
			}
			return nil, err
		}
	}
	// The store owns the shared merge pool, so it (not the engines, which
	// only register pools they own) exposes the pool's queue counters.
	s.unregister = obs.Register("sched", func() any { return s.sched.Stats() },
		obs.Label{Key: "store", Value: opts.Dir})
	s.unlock = unlock
	ok = true
	return s, nil
}

// stampShard fills the owning shard index into a typed corruption error
// bubbling out of one engine of a multi-shard store; other errors pass
// through untouched. The innermost attribution wins, so an already
// stamped error is never re-stamped.
func stampShard(err error, i int) error {
	if err == nil {
		return nil // before ec is declared: errors.As makes it escape
	}
	var ec *types.ErrCorrupt
	if errors.As(err, &ec) && ec.Shard < 0 {
		ec.Shard = i
	}
	return err
}

// guardOrphanedShards rejects a directory that has shard subdirectories
// but no SHARDS file pinning them.
func guardOrphanedShards(fsys vfs.FS, dir string) error {
	if _, err := fsys.Stat(filepath.Join(dir, "shard-00")); err == nil {
		return fmt.Errorf("shard: %s has shard subdirectories but no %s file; reopen with the original explicit Shards count to re-pin it", dir, manifestName)
	}
	return nil
}

// PersistedLayout reports the shard count and reshard generation pinned
// in dir's SHARDS file on fsys (nil = the real filesystem); ok is false
// when the directory is fresh or holds a legacy unsharded store (no
// SHARDS file).
func PersistedLayout(fsys vfs.FS, dir string) (count int, gen uint64, ok bool, err error) {
	raw, err := vfs.OrOS(fsys).ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, iofs.ErrNotExist) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, err
	}
	var m shardManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, 0, false, &layoutError{fmt.Sprintf("layout file does not parse: %v", err)}
	}
	if m.Shards < 1 || m.Shards > MaxShards {
		return 0, 0, false, &layoutError{fmt.Sprintf("layout pins shard count %d out of range [1,%d]", m.Shards, MaxShards)}
	}
	return m.Shards, m.Gen, true, nil
}

// layoutError is a SHARDS file that was read but does not pin a valid
// layout — damage, as opposed to an I/O failure reading it: Open refuses
// the store, VerifyStore reports detail as a finding against the file.
type layoutError struct{ detail string }

func (e *layoutError) Error() string {
	return fmt.Sprintf("shard: corrupt %s file: %s", manifestName, e.detail)
}

// InstallManifest atomically (re)pins dir's partition layout: the SHARDS
// file is replaced in a single rename, with the file synced before and
// the directory after it. This is the commit point of an offline
// reshard — before the rename the store serves its old layout
// untouched, after it the new generation's engines are live — and the
// reshard deletes the old generation right behind it, so the rename
// must be durable, not just atomic. A nil fsys is the real filesystem.
func InstallManifest(fsys vfs.FS, dir string, n int, gen uint64) error {
	if n < 1 || n > MaxShards {
		return fmt.Errorf("shard: shard count %d out of range [1,%d]", n, MaxShards)
	}
	raw, err := json.Marshal(shardManifest{Shards: n, Gen: gen})
	if err != nil {
		return err
	}
	// Durable replace: the temp file is synced before the rename and the
	// directory after it, so the new layout either is fully on disk or
	// the old SHARDS file survives intact.
	return vfs.WriteFileAtomic(vfs.OrOS(fsys), filepath.Join(dir, manifestName), raw, 0o644)
}

// sweepStaleGenerations removes the leftovers a committed or abandoned
// reshard may have stranded in a store directory: generation
// subdirectories other than the live one, a torn SHARDS.tmp, and — once
// the store lives in a reshard generation — the engine files of the
// original generation-0 layout (root-level MANIFEST and run files,
// shard-NN subdirectories). The SHARDS file is the authority on what is
// live, so everything outside the pinned layout is garbage by
// construction. Best-effort: a failure to remove garbage never blocks an
// open.
func sweepStaleGenerations(fsys vfs.FS, dir string, gen uint64) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	live := genDirName(gen)
	for _, de := range entries {
		name := de.Name()
		switch {
		case name == manifestName+".tmp":
		case genDirPattern.MatchString(name) && (gen == 0 || name != live):
		case gen > 0 && (name == "MANIFEST" || name == "MANIFEST.tmp" || strings.HasPrefix(name, "run-")):
		case gen > 0 && shardDirPattern.MatchString(name):
		default:
			continue
		}
		_ = fsys.RemoveAll(filepath.Join(dir, name))
	}
}

var shardDirPattern = regexp.MustCompile(`^shard-[0-9]{2}$`)

// RemoveGeneration deletes the engine files of a superseded layout
// generation — the cleanup counterpart of sweepStaleGenerations, kept
// next to it so the two share one notion of what a generation's files
// are. Best-effort: the SHARDS file no longer references the layout, so
// anything left behind is swept by the next Open. A nil fsys is the real
// filesystem.
func RemoveGeneration(fsys vfs.FS, dir string, gen uint64, n int) {
	fsys = vfs.OrOS(fsys)
	if gen > 0 {
		_ = fsys.RemoveAll(GenDir(dir, gen))
		return
	}
	if n > 1 {
		for i := 0; i < n; i++ {
			_ = fsys.RemoveAll(EngineDir(dir, 0, n, i))
		}
		return
	}
	// Generation-0 single engine: its files live at the store root next
	// to SHARDS and any generation directories.
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range ents {
		name := de.Name()
		if name == "MANIFEST" || name == "MANIFEST.tmp" || strings.HasPrefix(name, "run-") {
			_ = fsys.Remove(filepath.Join(dir, name))
		}
	}
}

// runOn invokes fn for each listed shard index and returns the first
// error. On a multi-core process the calls run in parallel goroutines;
// with GOMAXPROCS=1 (or a single target) they run inline, because
// fanning out on a single core buys no parallelism and the spawn/join
// cost lands on every block of the hot write path. Every listed shard
// is attempted even after a failure, so an error never leaves later
// shards at divergent lifecycle states.
func runOn(idxs []int, fn func(i int) error) error {
	if len(idxs) == 1 || runtime.GOMAXPROCS(0) == 1 {
		var first error
		for _, i := range idxs {
			if err := fn(i); err != nil && first == nil {
				first = fmt.Errorf("shard %d: %w", i, err)
			}
		}
		return first
	}
	errs := make([]error, len(idxs))
	var wg sync.WaitGroup
	for k, i := range idxs {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			errs[k] = fn(i)
		}(k, i)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", idxs[k], err)
		}
	}
	return nil
}

// runShards invokes fn for every shard index (see runOn).
func (s *Store) runShards(fn func(i int) error) error { return runOn(s.allIdx, fn) }

// Shards returns the partition count.
func (s *Store) Shards() int { return s.n }

// Generation returns the reshard generation of the open layout: 0 until
// the store is first resharded, then the count of reshards applied.
func (s *Store) Generation() uint64 { return s.gen }

// ShardOf returns the partition owning addr.
func (s *Store) ShardOf(addr types.Address) int { return ShardOf(addr, s.n) }

// BeginBlock opens block `height` on every shard that has not yet
// committed it. During normal operation that is all of them; after a crash
// the shards' checkpoints differ, and replaying from the minimum
// checkpoint skips the shards whose durable state already covers the
// height (their writes for it would otherwise be applied twice).
func (s *Store) BeginBlock(height uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inBlock {
		return fmt.Errorf("shard: block %d still open", s.height)
	}
	if height == 0 {
		return fmt.Errorf("shard: height 0 invalid (blocks start at 1)")
	}
	any := false
	maxCommitted := uint64(0)
	for i, e := range s.engines {
		h := e.Height()
		if h > maxCommitted {
			maxCommitted = h
		}
		s.active[i] = h < height
		any = any || s.active[i]
	}
	if !any {
		return fmt.Errorf("shard: height %d not above committed %d (no fork support)", height, maxCommitted)
	}
	for i, e := range s.engines {
		if !s.active[i] {
			continue
		}
		if err := e.BeginBlock(height); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	s.height = height
	s.inBlock = true
	return nil
}

// Put routes a state update to the owning shard. Writes routed to a shard
// skipped for this block (replay of an already-covered height) are
// dropped: the shard's durable state already contains them.
func (s *Store) Put(addr types.Address, v types.Value) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.inBlock {
		return fmt.Errorf("shard: Put outside a block; call BeginBlock first")
	}
	i := ShardOf(addr, s.n)
	if !s.active[i] {
		return nil
	}
	return s.engines[i].Put(addr, v)
}

// PutBatch routes a block's updates in one pass: updates are pre-bucketed
// per shard, then every non-empty bucket is applied with a single engine
// call — one lock acquisition per shard instead of one per update — and
// the buckets run in parallel goroutines. Bucket order preserves the
// batch's first-occurrence order, so each engine sees exactly the
// sub-sequence of updates it owns and digests match a sequential Put
// loop byte for byte. Buckets of shards skipped for this block (replay
// of an already-covered height) are dropped, like Put.
func (s *Store) PutBatch(updates []types.Update) error {
	if len(updates) == 0 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.inBlock {
		return fmt.Errorf("shard: PutBatch outside a block; call BeginBlock first")
	}
	if s.n == 1 {
		if !s.active[0] {
			return nil
		}
		return s.engines[0].PutBatch(updates)
	}
	buckets := make([][]types.Update, s.n)
	var nonEmpty []int
	for _, u := range updates {
		i := ShardOf(u.Addr, s.n)
		if !s.active[i] {
			continue
		}
		if len(buckets[i]) == 0 {
			nonEmpty = append(nonEmpty, i)
		}
		buckets[i] = append(buckets[i], u)
	}
	if len(nonEmpty) == 0 {
		return nil
	}
	// Fan out only over shards that actually received updates: a small
	// block on a wide store would otherwise spawn a goroutine per empty
	// bucket.
	return runOn(nonEmpty, func(i int) error {
		return s.engines[i].PutBatch(buckets[i])
	})
}

// Commit seals the open block on every participating shard in parallel
// goroutines and combines the per-shard Hstate roots — gathered in
// shard-index order, never completion order — into the deterministic
// block-header digest.
//
// During post-crash replay a skipped shard (one whose checkpoint already
// covers the block) contributes the exact root it committed at that
// height, read back from its persisted root history
// (the last 512 commits), so replayed digests
// reproduce the originally published headers. Two residual windows
// remain: a replayed height that has aged out of the retained history
// falls back to the shard's current root, and with asynchronous merge an
// *actively replaying* shard's own digests only converge from its
// re-triggered cascade onward (the reopened structure is ahead of the
// lost L0 — skipped shards are exact throughout).
func (s *Store) Commit() (types.Hash, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inBlock {
		return types.Hash{}, fmt.Errorf("shard: Commit without BeginBlock")
	}
	s.inBlock = false

	roots := make([]types.Hash, s.n)
	err := s.runShards(func(i int) error {
		if !s.active[i] {
			if r, ok := s.engines[i].HistoricalRoot(s.height); ok {
				roots[i] = r
			} else {
				roots[i] = s.engines[i].RootDigest()
			}
			return nil
		}
		var cerr error
		roots[i], cerr = s.engines[i].Commit()
		return cerr
	})
	if err != nil {
		return types.Hash{}, err
	}
	return CombineRoots(roots), nil
}

// Get returns the latest committed value of addr from its owning shard.
// Lock-free: routing reads only immutable fields and the engine read path
// runs against its published view.
func (s *Store) Get(addr types.Address) (types.Value, bool, error) {
	i := ShardOf(addr, s.n)
	v, ok, err := s.engines[i].Get(addr)
	return v, ok, stampShard(err, i)
}

// GetAt returns the value of addr active at block height blk.
func (s *Store) GetAt(addr types.Address, blk uint64) (types.Value, uint64, bool, error) {
	i := ShardOf(addr, s.n)
	v, at, ok, err := s.engines[i].GetAt(addr, blk)
	return v, at, ok, stampShard(err, i)
}

// GetBatch resolves many point lookups in one pass, all observing the
// same block height on every shard, in input order. It pins a snapshot
// and delegates to Snapshot.GetBatch: the store lock is held only for the
// pin, not across the shard lookups, so a large batch never stalls a
// concurrent Commit.
func (s *Store) GetBatch(addrs []types.Address) ([]core.ReadResult, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	snap := s.Snapshot()
	defer snap.Release()
	return snap.GetBatch(addrs)
}

// Snapshot pins every shard's published read view under the store lock
// (which excludes commits), yielding one consistent multi-shard state: a
// cross-shard read through the snapshot can never observe shard A at
// block N and shard B at block N+1. Release it when done so retired run
// files can be reclaimed.
func (s *Store) Snapshot() *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := &Snapshot{n: s.n, shards: make([]*core.Snapshot, s.n)}
	for i, e := range s.engines {
		snap.shards[i] = e.Snapshot()
		if h := snap.shards[i].Height(); h > snap.height {
			snap.height = h
		}
	}
	return snap
}

// Export streams every live entry of the store — all retained versions
// of all addresses, globally sorted by ⟨address, block height⟩ — through
// fn, from one pinned snapshot: the export is consistent with a single
// committed height across every shard and runs concurrently with commits
// and merges. Returns the number of entries streamed; fn returning an
// error aborts with that error.
func (s *Store) Export(fn func(addr types.Address, blk uint64, v types.Value) error) (int64, error) {
	snap := s.Snapshot()
	defer snap.Release()
	it := snap.Entries()
	var n int64
	for {
		e, ok := it.Next()
		if !ok {
			return n, it.Err()
		}
		if err := fn(e.Key.Addr, e.Key.Blk, e.Value); err != nil {
			return n, err
		}
		n++
	}
}

// Snapshot is a pinned, consistent read handle over all shards of the
// store: every read observes the same committed block height on every
// shard, lock-free, concurrently with commits and merges.
type Snapshot struct {
	shards   []*core.Snapshot
	n        int
	height   uint64
	rootOnce sync.Once
	root     types.Hash
	released atomic.Bool
}

// Height returns the committed block height the snapshot observes.
func (sn *Snapshot) Height() uint64 { return sn.height }

// Root returns the combined state digest the snapshot is consistent with.
// Computed on first use: the pinned per-shard roots are immutable, and
// reads that never verify proofs (Store.GetBatch pins a snapshot per
// call) skip the O(N) Merkle fold entirely.
func (sn *Snapshot) Root() types.Hash {
	sn.rootOnce.Do(func() {
		roots := make([]types.Hash, sn.n)
		for i, s := range sn.shards {
			roots[i] = s.Root()
		}
		sn.root = CombineRoots(roots)
	})
	return sn.root
}

// Get returns the latest value of addr as of the snapshot.
func (sn *Snapshot) Get(addr types.Address) (types.Value, bool, error) {
	i := ShardOf(addr, sn.n)
	v, ok, err := sn.shards[i].Get(addr)
	return v, ok, stampShard(err, i)
}

// GetAt returns the value of addr active at block height blk.
func (sn *Snapshot) GetAt(addr types.Address, blk uint64) (types.Value, uint64, bool, error) {
	i := ShardOf(addr, sn.n)
	v, at, ok, err := sn.shards[i].GetAt(addr, blk)
	return v, at, ok, stampShard(err, i)
}

// GetBatch resolves many point lookups, all consistent with the
// snapshot's height, in input order. Like Store.GetBatch, addresses are
// bucketed per owning shard and the non-empty buckets resolve
// concurrently on multi-core hosts.
func (sn *Snapshot) GetBatch(addrs []types.Address) ([]core.ReadResult, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	if sn.n == 1 {
		return sn.shards[0].GetBatch(addrs)
	}
	out := make([]core.ReadResult, len(addrs))
	buckets := make([][]types.Address, sn.n)
	positions := make([][]int, sn.n)
	var nonEmpty []int
	for pos, addr := range addrs {
		i := ShardOf(addr, sn.n)
		if len(buckets[i]) == 0 {
			nonEmpty = append(nonEmpty, i)
		}
		buckets[i] = append(buckets[i], addr)
		positions[i] = append(positions[i], pos)
	}
	err := runOn(nonEmpty, func(i int) error {
		res, err := sn.shards[i].GetBatch(buckets[i])
		if err != nil {
			return stampShard(err, i)
		}
		for k, pos := range positions[i] {
			out[pos] = res[k]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Entries streams every live entry of all shards — the pinned L0
// snapshots plus every committed run — in globally sorted compound-key
// order: shards partition the address space, so a k-way merge of their
// per-shard exports is the store's full sorted column. Valid until the
// snapshot is Released; check Err after exhaustion.
func (sn *Snapshot) Entries() *run.MergeIterator {
	its := make([]run.Iterator, len(sn.shards))
	for i, s := range sn.shards {
		its[i] = s.Entries()
	}
	return run.Merge(its...)
}

// EntryCount returns the number of entries Entries will yield.
func (sn *Snapshot) EntryCount() int64 {
	var n int64
	for _, s := range sn.shards {
		n += s.EntryCount()
	}
	return n
}

// Release unpins all shard views. Safe to call more than once.
func (sn *Snapshot) Release() {
	if sn.released.CompareAndSwap(false, true) {
		for _, s := range sn.shards {
			s.Release()
		}
	}
}

// ProvProof is a provenance proof handle: the engine's Merkle proof
// (*core.Proof, what a one-shard store returns — its combined digest IS
// that engine's Hstate) or the sharded *Proof (inner proof plus the
// shard-root path), checked the same way either way.
type ProvProof interface {
	// Verify checks the proof against the root digest published in a
	// block header and returns the authenticated versions, newest first.
	Verify(hstate types.Hash, addr types.Address, blkLo, blkHi uint64) ([]core.Version, error)
	// Size approximates the proof's wire size in bytes.
	Size() int
}

// Proof authenticates a provenance query against the combined multi-shard
// digest: the owning shard's inner COLE proof, its Hstate root, and the
// Merkle path from that root up to the combined digest. The path carries
// O(log N) sibling hashes — at 256 shards that is at most 12 hashes where
// the flat scheme shipped 255 sibling roots.
type Proof struct {
	// Shard is the partition that answered the query.
	Shard int
	// Shards is the store's partition count N (the proof must route addr
	// to Shard under exactly this N).
	Shards int
	// Root is the owning shard's Hstate root; the inner proof verifies
	// against it.
	Root types.Hash
	// Path authenticates Root as leaf `Shard` of the ShardRootFanout-ary
	// Merkle tree whose root (domain-hashed) is the combined digest.
	// Nil when Shards == 1: a single root IS the digest.
	Path *mht.RangeProof
	// Inner is the owning engine's provenance proof.
	Inner *core.Proof
}

// Size approximates the proof's wire size in bytes: the inner proof, the
// shard root, the Merkle path, and the two index fields.
func (p *Proof) Size() int {
	s := 8 + 8 + types.HashSize
	if p.Path != nil {
		s += p.Path.Size()
	}
	if p.Inner != nil {
		s += p.Inner.Size()
	}
	return s
}

// Prov returns the versions of addr written within [blkLo, blkHi] (newest
// first) and a proof that verifies against the combined digest of the
// last committed block. The owning shard answers from its published view
// — no engine mutex is taken. A one-shard store returns that engine's
// proof as is; otherwise the proof is wrapped with the Merkle path of the
// owning shard's root inside the combined digest, gathered under the
// store read-lock (which excludes commits) so the per-shard view roots
// are mutually consistent.
func (s *Store) Prov(addr types.Address, blkLo, blkHi uint64) ([]core.Version, ProvProof, error) {
	if s.n == 1 {
		versions, proof, err := s.engines[0].ProvQuery(addr, blkLo, blkHi)
		if err != nil {
			return nil, nil, stampShard(err, 0)
		}
		return versions, proof, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx := ShardOf(addr, s.n)
	snap := s.engines[idx].Snapshot()
	defer snap.Release()
	versions, inner, err := snap.ProvQuery(addr, blkLo, blkHi)
	if err != nil {
		return nil, nil, stampShard(err, idx)
	}
	roots := make([]types.Hash, s.n)
	for i, e := range s.engines {
		if i == idx {
			roots[i] = snap.Root()
			continue
		}
		roots[i] = e.ViewRoot()
	}
	p := &Proof{Shard: idx, Shards: s.n, Inner: inner, Root: snap.Root()}
	p.Path, err = mht.ProveRangeOf(roots, ShardRootFanout, int64(idx), int64(idx))
	if err != nil {
		return nil, nil, fmt.Errorf("shard: root path: %w", err)
	}
	return versions, p, nil
}

// Verify checks a sharded provenance proof against the combined
// block-header digest: the address must route to the claimed shard, the
// shard root's Merkle path must reproduce hstate, and the inner proof
// must verify against the owning shard's root. Returns the authenticated
// versions, newest first.
func (p *Proof) Verify(hstate types.Hash, addr types.Address, blkLo, blkHi uint64) ([]core.Version, error) {
	if p == nil {
		return nil, fmt.Errorf("shard: nil proof")
	}
	n := p.Shards
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("shard: proof claims %d shards", n)
	}
	if want := ShardOf(addr, n); p.Shard != want {
		return nil, fmt.Errorf("shard: proof answers from shard %d but the address routes to shard %d of %d", p.Shard, want, n)
	}
	combined := p.Root
	if n > 1 {
		if p.Path == nil {
			return nil, fmt.Errorf("shard: multi-shard proof is missing the root Merkle path")
		}
		// The path geometry must bind to the claimed shard layout: N
		// leaves, the canonical fanout, and exactly the owning leaf.
		if p.Path.N != int64(n) || p.Path.M != ShardRootFanout ||
			p.Path.Lo != int64(p.Shard) || p.Path.Hi != int64(p.Shard) {
			return nil, fmt.Errorf("shard: root path geometry does not match shard %d of %d", p.Shard, n)
		}
		top, err := mht.VerifyRange(p.Path, []types.Hash{p.Root})
		if err != nil {
			return nil, fmt.Errorf("shard: root path: %w", err)
		}
		combined = types.HashData(rootDomain, top[:])
	} else if p.Path != nil {
		return nil, fmt.Errorf("shard: single-shard proof carries a root Merkle path")
	}
	if combined != hstate {
		return nil, fmt.Errorf("shard: combined shard roots do not match Hstate")
	}
	return core.VerifyProv(p.Root, addr, blkLo, blkHi, p.Inner)
}

// RootDigest returns the current combined digest without committing.
func (s *Store) RootDigest() types.Hash {
	s.mu.RLock()
	defer s.mu.RUnlock()
	roots := make([]types.Hash, s.n)
	for i, e := range s.engines {
		roots[i] = e.RootDigest()
	}
	return CombineRoots(roots)
}

// Height returns the highest committed block height across shards. During
// normal operation all shards agree; after a crash this is the height
// replay must reach before the combined digest is meaningful again.
func (s *Store) Height() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var max uint64
	for _, e := range s.engines {
		if h := e.Height(); h > max {
			max = h
		}
	}
	return max
}

// CheckpointHeight returns the lowest shard checkpoint: after a crash,
// every block above it must be replayed (shards whose own checkpoint is
// higher skip the replayed blocks they already cover).
func (s *Store) CheckpointHeight() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	min := s.engines[0].CheckpointHeight()
	for _, e := range s.engines[1:] {
		if c := e.CheckpointHeight(); c < min {
			min = c
		}
	}
	return min
}

// Storage sums the on-disk footprint across shards (Levels reports the
// deepest shard).
func (s *Store) Storage() core.StorageBreakdown {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var sb core.StorageBreakdown
	for _, e := range s.engines {
		esb := e.Storage()
		sb.DataBytes += esb.DataBytes
		sb.IndexBytes += esb.IndexBytes
		sb.Entries += esb.Entries
		sb.Runs += esb.Runs
		if esb.Levels > sb.Levels {
			sb.Levels = esb.Levels
		}
	}
	return sb
}

// Stats sums engine counters across shards. The tail/stall counters sum
// too, except MaxCommitNanos, which takes the worst shard: a sharded
// commit is as slow as its slowest engine. PartitionWaits, always 0 per
// engine, is left 0.
func (s *Store) Stats() core.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var st core.Stats
	st.Hist = &core.OpHists{}
	for _, e := range s.engines {
		es := e.Stats()
		st.Puts += es.Puts
		st.Gets += es.Gets
		st.ProvQueries += es.ProvQueries
		st.Flushes += es.Flushes
		st.Merges += es.Merges
		st.BloomSkips += es.BloomSkips
		st.MergeWaits += es.MergeWaits
		st.Commits += es.Commits
		st.CommitNanos += es.CommitNanos
		if es.MaxCommitNanos > st.MaxCommitNanos {
			st.MaxCommitNanos = es.MaxCommitNanos
		}
		st.StallNanos += es.StallNanos
		st.Preemptions += es.Preemptions
		st.FlushBytes += es.FlushBytes
		st.MergeBytes += es.MergeBytes
		st.MergeNanos += es.MergeNanos
		st.PageReads += es.PageReads
		st.CacheHits += es.CacheHits
		st.SeqReads += es.SeqReads
		st.CorruptReads += es.CorruptReads
		// All shards share one tracer (Options.Trace is copied to every
		// engine), so each reports the same drop counter: take the max,
		// not the sum, or N shards would multiply every drop by N.
		if es.TraceDropped > st.TraceDropped {
			st.TraceDropped = es.TraceDropped
		}
		st.Hist.Merge(es.Hist)
	}
	return st
}

// ShardStat is one shard's balance snapshot.
type ShardStat struct {
	// Entries counts the shard's stored entries (memory + disk).
	Entries int64
	// Bytes is the shard's on-disk footprint (data + index files).
	Bytes int64
	// Puts counts the writes routed to the shard since open.
	Puts int64
	// MergeWaits counts the shard's merge back-pressure events.
	MergeWaits int64
	// MaxCommitNanos is the shard's single worst commit: the straggler
	// diagnosis for a sharded store's tail latency (the combined commit
	// is as slow as its slowest shard).
	MaxCommitNanos int64
}

// ShardStats returns each shard's balance snapshot, for imbalance
// introspection: a skewed address population routes unevenly, the hot
// shard becomes the commit straggler, and a persistently lopsided
// entry/byte spread is the operator's cue that an offline reshard is
// worth its rewrite cost.
func (s *Store) ShardStats() []ShardStat {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ShardStat, s.n)
	for i, e := range s.engines {
		w, m := e.MemEntries()
		st := e.Stats()
		sb := e.Storage()
		out[i] = ShardStat{
			Entries:        sb.Entries + int64(w) + int64(m),
			Bytes:          sb.DataBytes + sb.IndexBytes,
			Puts:           st.Puts,
			MergeWaits:     st.MergeWaits,
			MaxCommitNanos: st.MaxCommitNanos,
		}
	}
	return out
}

// Scheduler exposes the store's shared merge pool.
func (s *Store) Scheduler() *merge.Scheduler { return s.sched }

// PageCacheBytes reports the memory the store's page cache holds now and
// the most it will ever hold.
func (s *Store) PageCacheBytes() (resident, budget int64) { return s.cache.Bytes() }

// FlushAll persists every shard's in-memory level in parallel, for a
// clean shutdown.
func (s *Store) FlushAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inBlock {
		return fmt.Errorf("shard: FlushAll inside an open block")
	}
	return s.runShards(func(i int) error { return s.engines[i].FlushAll() })
}

// Close joins background merges and releases file handles on every shard.
// Unflushed L0 data is recovered by block replay above CheckpointHeight.
func (s *Store) Close() error {
	if s.unregister != nil {
		s.unregister()
		s.unregister = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for i, e := range s.engines {
		if err := e.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if s.unlock != nil {
		s.unlock()
		s.unlock = nil
	}
	return first
}
