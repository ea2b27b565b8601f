// Package reshard rewrites an existing COLE store from N shards to M
// shards offline, without replaying the chain from genesis.
//
// COLE's column-based design makes repartitioning cheap: all durable
// state lives in sorted immutable runs, so changing the shard count is a
// sort-merge, not a transaction replay. The rewrite first walks every
// committed run of every source shard once to count the entries each
// destination shard will get. Then one k-way merge of all the source runs
// is routed entry by entry, by address hash, to the destination builds,
// which run concurrently and each stream their share into a single
// bottom-level run — value file, learned index, Merkle file, and Bloom
// filter — with no per-key Put descent and no intermediate files. The
// source runs' stored Merkle leaf hashes pass straight through to the new
// Merkle files.
//
// # Crash safety
//
// The destination shards are built inside a fresh reshard-generation
// subdirectory (r000001/shard-NN, …) that never collides with the live
// layout, and the single commit point is the atomic rename that rewrites
// the SHARDS file to pin the new shard count and generation. A reshard
// interrupted anywhere before that rename leaves the original store
// byte-for-byte untouched (the half-built generation directory is swept
// by the next open or reshard); interrupted after it, the new store is
// fully live and only garbage cleanup remains.
//
// # Root epochs
//
// The combined state digest folds the per-shard roots, so it necessarily
// changes when the partition count does: a reshard starts a new root
// epoch at the store's durable height. Every Get/GetAt/GetBatch answer
// and every provenance version list is byte-identical before and after,
// and proofs verify against the new epoch's digests, but historical
// combined digests from the old epoch can no longer be reproduced (the
// per-shard root histories restart empty).
package reshard

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cole/internal/core"
	"cole/internal/run"
	"cole/internal/shard"
	"cole/internal/types"
	"cole/internal/vfs"
)

// Options tunes an offline reshard. The zero value is right for any
// store: structural parameters (size ratio, MHT fanout, merge mode) are
// inherited from the source store's manifests and cannot be changed here,
// and concurrency is not a knob: the counting pass walks up to GOMAXPROCS
// source runs at once, then every destination builds at once while the
// sources are read through one merge. Memory grows with the target shard
// count, not the entry count: each destination build holds its Bloom
// filter and up to about 4 MiB of write buffers, so a reshard to 256
// shards of a large store needs about 1 GiB of heap (and the Go GC's
// headroom on top).
type Options struct {
	// MemCapacity is the source store's B, used only to pick the on-disk
	// level the bulk-built runs are installed at (0 = 4096). The manifest
	// does not record B, so `coledb reshard` always places runs as if
	// B = 4096 (ROADMAP item 8).
	MemCapacity int
	// FS is the filesystem the rewrite runs on. nil (the default) selects
	// the real filesystem; tests inject fault-carrying implementations
	// (internal/vfs) to exercise crash consistency at every syscall.
	FS vfs.FS
}

// Report summarizes a completed reshard.
type Report struct {
	// FromShards and ToShards are the partition counts before and after.
	FromShards, ToShards int
	// Generation is the new layout's reshard generation.
	Generation uint64
	// Height is the durable block height the rewrite preserved (the
	// store's replay checkpoint; also the new engines' height).
	Height uint64
	// Entries is the total number of live key/version entries rewritten.
	Entries int64
	// Bytes is the logical volume rewritten (Entries × entry size).
	Bytes int64
	// PerShard is each destination shard's entry count.
	PerShard []int64
	// Imbalance is max/mean over PerShard (1.0 = perfectly even).
	Imbalance float64
	// Elapsed is the wall-clock duration of the whole rewrite.
	Elapsed time.Duration
}

// MBPerSec is the rewrite bandwidth implied by the report.
func (r *Report) MBPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / (1 << 20) / r.Elapsed.Seconds()
}

// Reshard rewrites the store in dir to the given shard count. The store
// must be closed (the rewrite requires exclusive access to the
// directory) and cleanly flushed: every shard's durable checkpoint must
// sit at the same height, which a FlushAll before shutdown guarantees. A
// store that crashed mid-operation must be opened and replayed first.
//
// The rewrite preserves the full version history: every compound key
// ⟨addr, blk⟩ with its value is carried over, so Get, GetAt, GetBatch,
// and ProvQuery answer identically before and after (proofs verify
// against the new root epoch — see the package comment). Resharding to
// the current count is allowed and acts as a full compaction into one
// bottom-level run per shard.
func Reshard(dir string, shards int, opts Options) (*Report, error) {
	start := time.Now()
	if shards < 1 || shards > shard.MaxShards {
		return nil, fmt.Errorf("reshard: target count %d out of range [1,%d]", shards, shard.MaxShards)
	}
	fsys := vfs.OrOS(opts.FS)
	// Take the store's advisory lock for the whole rewrite: a directory a
	// live process still serves (or a concurrent reshard) fails here
	// instead of silently committing over its writes. An injected
	// filesystem is process-local, so there is nothing for flock to
	// arbitrate.
	if vfs.IsOS(fsys) {
		unlock, err := shard.LockDir(dir)
		if err != nil {
			return nil, err
		}
		defer unlock()
	}
	n, gen, pinned, err := shard.PersistedLayout(fsys, dir)
	if err != nil {
		return nil, err
	}
	if !pinned {
		// A legacy unsharded store (engine at the root, no SHARDS file) is
		// a valid 1-shard source; anything else is not a store.
		if _, serr := fsys.Stat(filepath.Join(dir, "MANIFEST")); serr != nil {
			if _, derr := fsys.Stat(filepath.Join(dir, "shard-00")); derr == nil {
				return nil, fmt.Errorf("reshard: %s has shard subdirectories but no SHARDS file; reopen it with the original explicit shard count first", dir)
			}
			return nil, fmt.Errorf("reshard: %s does not hold a COLE store", dir)
		}
		n, gen = 1, 0
	}

	states := make([]*core.StoreState, n)
	srcDirs := make([]string, n)
	for i := 0; i < n; i++ {
		srcDirs[i] = shard.EngineDir(dir, gen, n, i)
		if states[i], err = core.ReadStoreState(fsys, srcDirs[i]); err != nil {
			return nil, fmt.Errorf("reshard: source shard %d: %w", i, err)
		}
	}
	// Structural parameters come from the first shard that has durable
	// state; all others must agree, and every shard must share one replay
	// horizon — the exact height the rewritten store serves. A shard with
	// no manifest has horizon 0, so a store that was not cleanly flushed
	// (or crashed with uneven checkpoints) is refused rather than
	// silently losing its replay window.
	ref := -1
	for i, st := range states {
		if st.Exists {
			ref = i
			break
		}
	}
	if ref < 0 {
		return nil, fmt.Errorf("reshard: %s has no durable state; commit blocks and FlushAll before resharding", dir)
	}
	base := states[ref]
	for i, st := range states {
		if st.Exists && (st.Async != base.Async || st.SizeRatio != base.SizeRatio || st.Fanout != base.Fanout) {
			return nil, fmt.Errorf("reshard: shard %d parameters (async=%v T=%d m=%d) disagree with shard %d (async=%v T=%d m=%d)",
				i, st.Async, st.SizeRatio, st.Fanout, ref, base.Async, base.SizeRatio, base.Fanout)
		}
		if st.Replay != base.Replay {
			return nil, fmt.Errorf("reshard: shard %d durable checkpoint %d != shard %d checkpoint %d; open the store, replay, and FlushAll before resharding",
				i, st.Replay, ref, base.Replay)
		}
	}
	height := base.Replay

	newGen := gen + 1
	buildDir := shard.GenDir(dir, newGen)
	// A previous torn attempt may have stranded a half-built generation
	// at the same path; it is garbage by construction (SHARDS never
	// pointed at it).
	if err := fsys.RemoveAll(buildDir); err != nil {
		return nil, err
	}

	// Open every committed run of every source shard into one list,
	// directly from the manifests — the engines are never opened, so the
	// source directories are not mutated (no orphan sweep, no restarted
	// background merges).
	params := run.Params{Fanout: base.Fanout, FS: fsys}
	var runs []*run.Run
	defer func() {
		for _, r := range runs {
			_ = r.Close()
		}
	}()
	var entries int64
	for i, st := range states {
		for _, id := range st.RunIDs {
			r, err := run.Open(srcDirs[i], id, params)
			if err != nil {
				return nil, fmt.Errorf("reshard: open run %d of source shard %d: %w", id, i, err)
			}
			runs = append(runs, r)
			entries += r.Count()
		}
	}

	// Counting pass: a run build is sized before its first entry arrives,
	// so walk each source run once, in parallel across runs — counting
	// needs no merge order — and count the entries each destination gets.
	perShard := make([]int64, shards)
	var mu sync.Mutex
	err = forEachPar(runtime.GOMAXPROCS(0), len(runs), func(i int) error {
		count := make([]int64, shards)
		it := runs[i].Iter()
		for e, ok := it.Next(); ok; e, ok = it.Next() {
			count[shard.ShardOf(e.Key.Addr, shards)]++
		}
		mu.Lock()
		for j, c := range count {
			perShard[j] += c
		}
		mu.Unlock()
		return it.Err()
	})
	if err != nil {
		return nil, fmt.Errorf("reshard: count: %w", err)
	}

	// Destination builds: one merge of every source run is routed entry by
	// entry to the destinations, each of which streams its share into one
	// bottom-level run plus manifest, with the source runs' stored leaf
	// hashes passed through to the new Merkle files.
	destOpts := core.Options{
		MemCapacity: opts.MemCapacity,
		SizeRatio:   base.SizeRatio,
		Fanout:      base.Fanout,
		AsyncMerge:  base.Async,
		FS:          fsys,
	}
	build := func(j int, src run.Iterator) error {
		o := destOpts
		o.Dir = shard.EngineDir(dir, newGen, shards, j)
		return core.InstallBulkFrom(o, height, perShard[j], func(rdir string, id uint64, params run.Params) (*run.Run, error) {
			return run.Build(rdir, id, perShard[j], params, src)
		})
	}
	if err := distribute(runs, shards, build); err != nil {
		return nil, fmt.Errorf("reshard: build: %w", err)
	}
	// Durability barrier: the engine's normal unsynced-manifest window is
	// recoverable by chain replay, but the commit below is followed by
	// deleting the source engines — so the whole new generation must be
	// on stable storage first, and the SHARDS rename after it, before
	// anything is removed.
	if err := syncTree(fsys, buildDir); err != nil {
		return nil, fmt.Errorf("reshard: sync new generation: %w", err)
	}

	// Commit: one atomic (and fsynced) rename flips the live layout.
	if err := shard.InstallManifest(fsys, dir, shards, newGen); err != nil {
		return nil, fmt.Errorf("reshard: commit: %w", err)
	}

	// Cleanup: the superseded generation is garbage now. Best-effort —
	// the SHARDS file already names the live layout, and the next open
	// sweeps whatever remains.
	shard.RemoveGeneration(fsys, dir, gen, n)

	return &Report{
		FromShards: n,
		ToShards:   shards,
		Generation: newGen,
		Height:     height,
		Entries:    entries,
		Bytes:      entries * types.EntrySize,
		PerShard:   perShard,
		Imbalance:  imbalance(perShard),
		Elapsed:    time.Since(start),
	}, nil
}

// routeBatch is how many entries the router hands a destination at once.
// A destination's batches are recycled, so it has about three in use.
const routeBatch = 256

// routed is one entry on its way to a destination, with the leaf hash its
// source run stores for it.
type routed struct {
	e    types.Entry
	leaf types.Hash
}

// distribute builds every destination from one merge of every source run:
// a router goroutine sends each entry to its destination's stream, and
// the builds run concurrently, each reading its own stream. It returns
// once the router and every build have.
func distribute(runs []*run.Run, shards int, build func(j int, src run.Iterator) error) error {
	full := make([]chan []routed, shards)
	free := make([]chan []routed, shards)
	// A destination has at most three batches in use — one filling, one
	// queued on full, one being read — so free never needs to hold more
	// than the two that are not filling.
	for j := range full {
		full[j], free[j] = make(chan []routed, 1), make(chan []routed, 2)
	}
	var routeErr error
	routerDone := make(chan struct{})
	go func() {
		defer close(routerDone)
		routeErr = route(runs, full, free)
		for _, ch := range full {
			close(ch)
		}
	}()
	err := forEachPar(shards, shards, func(j int) error {
		err := build(j, &destStream{full: full[j], free: free[j], routeErr: &routeErr})
		// A build that returned before its stream ended (it failed, or its
		// shard is empty) must not leave the router blocked.
		for range full[j] {
		}
		return err
	})
	<-routerDone
	if routeErr != nil {
		return routeErr
	}
	return err
}

// route is distribute's router: it merges every source run and sends each
// entry to the stream of the destination its address hashes to,
// routeBatch entries at a time, reusing the batches that come back on free.
func route(runs []*run.Run, full, free []chan []routed) error {
	src := run.MergeRuns(runs)
	batches := make([][]routed, len(full))
	var addr types.Address
	j := -1
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		if j < 0 || e.Key.Addr != addr { // versions of one address are adjacent
			addr, j = e.Key.Addr, shard.ShardOf(e.Key.Addr, len(full))
		}
		leaf, err := src.LeafHash()
		if err != nil {
			return err
		}
		if batches[j] == nil {
			select {
			case batches[j] = <-free[j]:
			default:
				batches[j] = make([]routed, 0, routeBatch)
			}
		}
		if batches[j] = append(batches[j], routed{e, leaf}); len(batches[j]) == routeBatch {
			full[j] <- batches[j]
			batches[j] = nil
		}
	}
	for j, b := range batches {
		if len(b) > 0 {
			full[j] <- b
		}
	}
	return src.Err()
}

// destStream is one destination's end of a distribution: a
// run.HashedIterator over the batches the router sends it.
type destStream struct {
	full        <-chan []routed
	free        chan<- []routed
	batch, rest []routed // the batch being read, and its unread entries
	leaf        types.Hash
	routeErr    *error // the router's result, valid once full is closed
}

// Next implements run.Iterator.
func (d *destStream) Next() (types.Entry, bool) {
	for len(d.rest) == 0 {
		if d.batch != nil {
			select { // hand the spent batch back unless the router has enough
			case d.free <- d.batch[:0]:
			default:
			}
			d.batch = nil
		}
		b, ok := <-d.full
		if !ok {
			return types.Entry{}, false
		}
		d.batch, d.rest = b, b
	}
	r := d.rest[0]
	d.rest, d.leaf = d.rest[1:], r.leaf
	return r.e, true
}

// Hashed implements run.HashedIterator: every entry carries its source
// run's stored leaf hash.
func (d *destStream) Hashed() bool { return true }

// LeafHash returns the stored leaf hash of the entry Next last returned.
func (d *destStream) LeafHash() (types.Hash, error) { return d.leaf, nil }

// Err reports why the router ended the stream early, if it did.
func (d *destStream) Err() error { return *d.routeErr }

// syncTree fsyncs every file and directory under root, deepest first —
// the write barrier between building a generation and deleting the one
// it replaces.
func syncTree(fsys vfs.FS, root string) error {
	ents, err := fsys.ReadDir(root)
	if err != nil {
		return err
	}
	for _, de := range ents {
		p := filepath.Join(root, de.Name())
		if de.IsDir() {
			if err := syncTree(fsys, p); err != nil {
				return err
			}
			continue
		}
		f, err := fsys.Open(p)
		if err != nil {
			return err
		}
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return fsys.SyncDir(root)
}

func imbalance(counts []int64) float64 {
	var total, hi int64
	for _, c := range counts {
		total, hi = total+c, max(hi, c)
	}
	if total == 0 {
		return 0
	}
	return float64(hi) * float64(len(counts)) / float64(total)
}

// forEachPar runs fn for every index, up to workers at once, and returns
// the first error by index once every call has returned.
func forEachPar(workers, n int, fn func(i int) error) error {
	sem := make(chan struct{}, max(workers, 1))
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
