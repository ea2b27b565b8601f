// Package reshard rewrites an existing COLE store from N shards to M
// shards offline, without replaying the chain from genesis.
//
// COLE's column-based design makes repartitioning cheap: all durable
// state lives in sorted immutable runs, so changing the shard count is a
// partitioned sort-merge, not a transaction replay. The rewrite streams
// every live key/version of every source shard in compound-key order
// (k-way merge over each shard's committed run list), routes each entry
// to its destination partition by the shard hash, and bulk-builds each
// destination shard's bottom-level run — value file, learned index,
// Merkle file, and Bloom filter — in one pass per destination, with no
// per-key Put descent.
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
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"cole/internal/core"
	"cole/internal/run"
	"cole/internal/shard"
	"cole/internal/types"
	"cole/internal/vfs"
)

// Install steps, in execution order, as reported to Options.FailPoint.
const (
	// StepSpool partitions the source streams into per-destination spool
	// files (nothing outside the build directory is touched yet).
	StepSpool = "spool"
	// StepBuild bulk-builds the destination shard directories from the
	// spools (still entirely inside the build directory).
	StepBuild = "build"
	// StepCommit atomically rewrites the SHARDS file — the point of no
	// return. Failing before it leaves the original store untouched.
	StepCommit = "commit"
	// StepCleanup removes the superseded generation's engine files.
	// Failing here leaves a fully functional new store plus garbage that
	// the next open sweeps.
	StepCleanup = "cleanup"
)

// Options tunes an offline reshard. The zero value is right for any
// store: structural parameters (size ratio, MHT fanout, merge mode,
// page size) are inherited from the source store's manifests and run
// metadata and cannot be changed here.
type Options struct {
	// PageSize overrides the page size adopted from the source runs'
	// metadata; leave 0 (a mismatch with the on-disk runs fails the
	// open).
	PageSize int
	// MemCapacity is the source store's B, used only to pick the on-disk
	// level the bulk-built runs are installed at (0 = 4096).
	MemCapacity int
	// BloomFP is the Bloom false-positive target for the rebuilt runs
	// (0 = 0.01).
	BloomFP float64
	// Workers bounds the rewrite's concurrency (0 = GOMAXPROCS). With
	// more workers than source (or destination) shards, the surplus goes
	// to key-range partitioning inside each shard: source streams spool
	// in parallel parts, and destination runs are built by parallel span
	// workers (run.BuildSpans), so the wall time keeps dropping
	// even when the shard counts are small.
	Workers int
	// FailPoint, when set, is invoked before each install step with the
	// step name; returning an error aborts the reshard at exactly that
	// point with no cleanup, simulating a crash. Tests use it to verify
	// torn reshards leave the store consistent. Nil in production. For
	// finer-grained crashes (any syscall, torn writes, dropped fsyncs)
	// inject a fault-carrying FS instead.
	FailPoint func(step string) error
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

func (o Options) fail(step string) error {
	if o.FailPoint == nil {
		return nil
	}
	if err := o.FailPoint(step); err != nil {
		return fmt.Errorf("reshard: aborted at step %q: %w", step, err)
	}
	return nil
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
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

	// Adopt the store's real page geometry from the first run's metadata
	// (the engine options are not persisted, and requiring the operator
	// to recall them would make non-default stores unreshardable from
	// the CLI).
	if opts.PageSize == 0 {
	adopt:
		for i, st := range states {
			for _, id := range st.RunIDs {
				ps, err := run.PageSizeOf(fsys, srcDirs[i], id)
				if err != nil {
					return nil, fmt.Errorf("reshard: read run %d of source shard %d: %w", id, i, err)
				}
				opts.PageSize = ps
				break adopt
			}
		}
	}

	// Open every committed source run directly from the manifests — the
	// engines are never opened, so the source directories are not
	// mutated (no orphan sweep, no restarted background merges).
	params := run.Params{PageSize: opts.PageSize, Fanout: base.Fanout, BloomFP: opts.BloomFP, FS: fsys}
	srcRuns := make([][]*run.Run, n)
	defer func() {
		for _, runs := range srcRuns {
			for _, r := range runs {
				_ = r.Close()
			}
		}
	}()
	var entries int64
	for i, st := range states {
		for _, id := range st.RunIDs {
			r, err := run.Open(srcDirs[i], id, params)
			if err != nil {
				return nil, fmt.Errorf("reshard: open run %d of source shard %d: %w", id, i, err)
			}
			srcRuns[i] = append(srcRuns[i], r)
			entries += r.Count()
		}
	}

	// Phase 1 — spool: each source shard's sorted stream is demultiplexed
	// into one spool file per destination. Each spool inherits the source
	// order, so it is itself sorted, and phase 2 only needs a k-way merge
	// of N small sorted files per destination. One sequential read of the
	// source, one sequential write of the spools — no M-fold re-reading
	// and no cross-merge deadlocks.
	//
	// With more workers than source shards, each source's merged stream
	// is itself cut into key-ordered parts (run.PlanRuns — the same range
	// planner the engine's partitioned merges use) and the parts spool
	// concurrently, so a reshard of a few big shards no longer serializes
	// on per-shard streams. Every key of part p precedes every key of
	// part p+1, so reading a (source,destination) spool chain back in
	// part order is still one sorted stream.
	if err := opts.fail(StepSpool); err != nil {
		return nil, err
	}
	spoolDir := filepath.Join(buildDir, "spool")
	if err := fsys.MkdirAll(spoolDir, 0o755); err != nil {
		return nil, err
	}
	workers := opts.workers()
	parts := 1
	if workers > n {
		parts = (workers + n - 1) / n
	}
	type spoolTask struct {
		src, part int
		sp        run.Span
	}
	var tasks []spoolTask
	srcParts := make([]int, n) // how many parts source i was actually cut into
	for i := 0; i < n; i++ {
		if len(srcRuns[i]) == 0 {
			continue
		}
		spans, err := run.PlanRuns(srcRuns[i], parts, opts.PageSize)
		if err != nil {
			return nil, fmt.Errorf("reshard: plan source shard %d: %w", i, err)
		}
		srcParts[i] = len(spans)
		for p, sp := range spans {
			tasks = append(tasks, spoolTask{src: i, part: p, sp: sp})
		}
	}
	// counts[i][j][p] counts source i's entries routed to destination j by
	// part; tasks write disjoint (i,·,p) slots, so no locking.
	counts := make([][][]int64, n)
	for i := range counts {
		counts[i] = make([][]int64, shards)
		for j := range counts[i] {
			counts[i][j] = make([]int64, srcParts[i])
		}
	}
	err = forEachPar(workers, len(tasks), func(ti int) error {
		t := tasks[ti]
		writers := make([]*spoolWriter, shards)
		defer func() {
			for _, w := range writers {
				if w != nil {
					w.abort()
				}
			}
		}()
		it := run.MergeRunsRange(srcRuns[t.src], t.sp)
		for {
			e, ok := it.Next()
			if !ok {
				break
			}
			// Carry the source run's precomputed Merkle leaf hash through
			// the spool: the destination build then streams hashes back
			// instead of re-running SHA-256 over every entry.
			leaf, err := it.LeafHash()
			if err != nil {
				return fmt.Errorf("source shard %d: %w", t.src, err)
			}
			j := shard.ShardOf(e.Key.Addr, shards)
			if writers[j] == nil {
				w, err := newSpoolWriter(fsys, spoolPath(spoolDir, t.src, j, t.part))
				if err != nil {
					return err
				}
				writers[j] = w
			}
			if err := writers[j].add(e, leaf); err != nil {
				return err
			}
			counts[t.src][j][t.part]++
		}
		if err := it.Err(); err != nil {
			return fmt.Errorf("source shard %d: %w", t.src, err)
		}
		for j, w := range writers {
			if w == nil {
				continue
			}
			if err := w.finish(); err != nil {
				return err
			}
			writers[j] = nil
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("reshard: spool: %w", err)
	}

	// Phase 2 — build: per destination, merge its spools and install a
	// complete engine directory (bottom-level run + manifest) in one
	// streaming pass. Spare workers partition each destination's build by
	// key range: the spool chains are positionally addressable, so the
	// same planner cuts them into spans and run.BuildSpans writes the
	// run's slices concurrently — the same files as one span would write.
	if err := opts.fail(StepBuild); err != nil {
		return nil, err
	}
	perShard := make([]int64, shards)
	for j := 0; j < shards; j++ {
		for i := 0; i < n; i++ {
			for _, c := range counts[i][j] {
				perShard[j] += c
			}
		}
	}
	destOpts := core.Options{
		MemCapacity: opts.MemCapacity,
		SizeRatio:   base.SizeRatio,
		Fanout:      base.Fanout,
		PageSize:    opts.PageSize,
		BloomFP:     opts.BloomFP,
		AsyncMerge:  base.Async,
		FS:          fsys,
	}
	destWidth := 1
	if workers > shards {
		destWidth = (workers + shards - 1) / shards
	}
	err = forEachPar(workers, shards, func(j int) error {
		var chains []*spoolChain
		defer func() {
			for _, c := range chains {
				c.close()
			}
		}()
		for i := 0; i < n; i++ {
			chain, err := openSpoolChain(fsys, spoolDir, i, j, counts[i][j])
			if err != nil {
				return err
			}
			if chain != nil {
				chains = append(chains, chain)
			}
		}
		o := destOpts
		o.Dir = shard.EngineDir(dir, newGen, shards, j)
		return core.InstallBulkFrom(o, height, perShard[j], func(rdir string, id uint64, params run.Params) (*run.Run, error) {
			sources := make([]run.PlanSource, len(chains))
			for si, c := range chains {
				sources[si] = c
			}
			spans, err := run.Plan(sources, destWidth, params.PageSize)
			if err != nil {
				return nil, err
			}
			// Destination builds already run on their own bounded
			// goroutines (forEachPar holds no scheduler slots), so span
			// workers spawn plainly and the parent just blocks on the
			// join — no Yield needed.
			par := run.Parallel{Spawn: func(fn func()) { go fn() }}
			return run.BuildSpans(rdir, id, perShard[j], params, spans, func(sp run.Span) (run.Iterator, error) {
				var its []run.Iterator
				for si, c := range chains {
					if sp.SrcHi[si] > sp.SrcLo[si] {
						its = append(its, c.iterRange(sp.SrcLo[si], sp.SrcHi[si]))
					}
				}
				return run.Merge(its...), nil
			}, par)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("reshard: build: %w", err)
	}
	if err := fsys.RemoveAll(spoolDir); err != nil {
		return nil, err
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
	if err := opts.fail(StepCommit); err != nil {
		return nil, err
	}
	if err := shard.InstallManifest(fsys, dir, shards, newGen); err != nil {
		return nil, fmt.Errorf("reshard: commit: %w", err)
	}

	// Cleanup: the superseded generation is garbage now. Best-effort —
	// the SHARDS file already names the live layout, and the next open
	// sweeps whatever remains.
	if err := opts.fail(StepCleanup); err != nil {
		return nil, err
	}
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
		serr := f.Sync()
		cerr := f.Close()
		if serr != nil {
			return serr
		}
		if cerr != nil {
			return cerr
		}
	}
	return fsys.SyncDir(root)
}

func imbalance(counts []int64) float64 {
	var total, max int64
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) * float64(len(counts)) / float64(total)
}

// forEachPar runs fn for every index with bounded parallelism and
// returns the first error (all indexes are attempted).
func forEachPar(workers, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	sem := make(chan struct{}, workers)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- spool files ----
//
// A spool is a flat sequence of fixed-size records in sorted key order —
// the slice of one source shard's stream (one key-range part of it) that
// routes to one destination shard. Each record is an encoded entry
// followed by its Merkle leaf hash as read from the source run's .mrk
// file, so the destination build's hash passthrough survives the
// demultiplexing hop. The part spools of one (source,destination) pair
// concatenated in part order form one sorted stream — a spool chain.

// spoolRecSize is one spool record: entry bytes + leaf hash.
const spoolRecSize = types.EntrySize + types.HashSize

func spoolPath(spoolDir string, src, dst, part int) string {
	return filepath.Join(spoolDir, fmt.Sprintf("s%03d-d%03d-p%03d.ent", src, dst, part))
}

type spoolWriter struct {
	f   vfs.File
	w   *bufio.Writer
	buf [spoolRecSize]byte
}

func newSpoolWriter(fsys vfs.FS, path string) (*spoolWriter, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &spoolWriter{f: f, w: bufio.NewWriterSize(f, 1<<20)}, nil
}

func (s *spoolWriter) add(e types.Entry, leaf types.Hash) error {
	types.EncodeEntry(s.buf[:types.EntrySize], e)
	copy(s.buf[types.EntrySize:], leaf[:])
	_, err := s.w.Write(s.buf[:])
	return err
}

func (s *spoolWriter) finish() error {
	if err := s.w.Flush(); err != nil {
		_ = s.f.Close()
		return err
	}
	return s.f.Close()
}

func (s *spoolWriter) abort() { _ = s.f.Close() }

// spoolChain is one (source,destination) stream reassembled from its
// part spools: a positionally addressable run.PlanSource over the
// fixed-size records spanning the chained files, plus bounded range
// iterators for the partitioned destination build.
type spoolChain struct {
	files []vfs.File
	cum   []int64 // cum[k] = records before file k; len = len(files)+1
}

// openSpoolChain opens source src's spool parts for destination dst in
// part order (parts are key-ordered, so the chain is one sorted stream).
// Returns nil when the source routed nothing to this destination.
func openSpoolChain(fsys vfs.FS, spoolDir string, src, dst int, partCounts []int64) (*spoolChain, error) {
	c := &spoolChain{cum: []int64{0}}
	for p, cnt := range partCounts {
		if cnt == 0 {
			continue
		}
		f, err := fsys.Open(spoolPath(spoolDir, src, dst, p))
		if err != nil {
			c.close()
			return nil, err
		}
		c.files = append(c.files, f)
		c.cum = append(c.cum, c.cum[len(c.cum)-1]+cnt)
	}
	if len(c.files) == 0 {
		return nil, nil
	}
	return c, nil
}

func (c *spoolChain) close() {
	for _, f := range c.files {
		_ = f.Close()
	}
}

// Count implements run.PlanSource.
func (c *spoolChain) Count() int64 { return c.cum[len(c.cum)-1] }

// fileOf locates the chained file holding record pos.
func (c *spoolChain) fileOf(pos int64) (int, error) {
	if pos < 0 || pos >= c.Count() {
		return 0, fmt.Errorf("reshard: spool position %d out of range [0,%d)", pos, c.Count())
	}
	return sort.Search(len(c.files), func(k int) bool { return c.cum[k+1] > pos }), nil
}

// KeyAt implements run.PlanSource: one uncached positional read of the
// record's key prefix.
func (c *spoolChain) KeyAt(pos int64) (types.CompoundKey, error) {
	k, err := c.fileOf(pos)
	if err != nil {
		return types.CompoundKey{}, err
	}
	var buf [types.CompoundKeySize]byte
	if _, err := c.files[k].ReadAt(buf[:], (pos-c.cum[k])*spoolRecSize); err != nil {
		return types.CompoundKey{}, err
	}
	return types.DecodeCompoundKey(buf[:])
}

// iterRange streams records [lo,hi) of the chain; like the whole-spool
// iterator it replaces, it implements run.ErrIterator so read failures
// propagate through the destination merge, and run.HashedIterator so the
// spooled leaf hashes reach the destination run builder.
func (c *spoolChain) iterRange(lo, hi int64) *spoolRangeIterator {
	return &spoolRangeIterator{c: c, pos: lo, hi: hi}
}

type spoolRangeIterator struct {
	c       *spoolChain
	pos, hi int64
	k       int           // current file index, valid while r != nil
	r       *bufio.Reader // positioned at pos within file k
	buf     [spoolRecSize]byte
	leaf    types.Hash
	err     error
}

// Next implements run.Iterator.
func (s *spoolRangeIterator) Next() (types.Entry, bool) {
	if s.err != nil || s.pos >= s.hi {
		return types.Entry{}, false
	}
	if s.r == nil {
		// (Re)position: wrap a section reader over the file holding pos,
		// from pos's offset to the file's end.
		k, err := s.c.fileOf(s.pos)
		if err != nil {
			s.err = err
			return types.Entry{}, false
		}
		s.k = k
		off := (s.pos - s.c.cum[k]) * spoolRecSize
		size := (s.c.cum[k+1]-s.c.cum[k])*spoolRecSize - off
		s.r = bufio.NewReaderSize(io.NewSectionReader(s.c.files[k], off, size), 1<<18)
	}
	if _, err := io.ReadFull(s.r, s.buf[:]); err != nil {
		// EOF is an error here too: the range promised records up to hi.
		s.err = fmt.Errorf("reshard: spool read at %d: %w", s.pos, err)
		return types.Entry{}, false
	}
	e, err := types.DecodeEntry(s.buf[:types.EntrySize])
	if err != nil {
		s.err = err
		return types.Entry{}, false
	}
	copy(s.leaf[:], s.buf[types.EntrySize:])
	s.pos++
	if s.pos < s.hi && s.pos == s.c.cum[s.k+1] {
		s.r = nil // crossed a part boundary; reposition on the next call
	}
	return e, true
}

// Hashed implements run.HashedIterator.
func (s *spoolRangeIterator) Hashed() bool { return true }

// LeafHash implements run.HashedIterator: the leaf hash spooled with the
// entry most recently returned by Next.
func (s *spoolRangeIterator) LeafHash() (types.Hash, error) { return s.leaf, nil }

// Err implements run.ErrIterator.
func (s *spoolRangeIterator) Err() error { return s.err }
