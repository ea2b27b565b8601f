// Package core implements the COLE storage engine — the paper's primary
// contribution (§3–§6).
//
// COLE stores each ledger state as a "column": every historical version of
// an address is a compound key ⟨addr, blk⟩ appended to an LSM-organized
// store. The in-memory level L0 is a Merkle B+-tree; each on-disk level
// holds sorted runs indexed by learned models and authenticated by m-ary
// Merkle files (package run). The root digest Hstate commits the L0 root(s)
// and every committed run digest (root_hash_list).
//
// Two write strategies are provided, selected by Options.AsyncMerge:
//
//   - COLE (synchronous, Algorithm 1): a full L0 flushes into L1; a full
//     level sort-merges into the next, recursively, inline.
//   - COLE* (asynchronous, §5, Algorithm 5): every level holds a writing
//     and a merging group; merges run in background goroutines between two
//     deterministic checkpoints (start/commit), so Hstate remains identical
//     across nodes regardless of merge timing while write stalls disappear.
//
// A block is one engine step, CommitBlock: under the engine lock its
// updates go into the L0 writing group in arrival order, then the commit
// runs the cascade and returns Hstate. The engine keeps no open block;
// the store (package shard) buffers a block's writes until its commit.
//
// Deviation from Algorithm 1/5: flush cascades trigger at block commit
// rather than inside Put. This guarantees compound keys are globally
// unique (a block that updates an address twice after a mid-block flush
// would otherwise place duplicate ⟨addr, blk⟩ keys in two runs) and
// aligns recovery checkpoints with block heights.
//
// # Read path: published views
//
// Reads are snapshot-isolated and lock-free. Every commit (and FlushAll)
// builds an immutable `view` of the whole structure — copy-on-write
// snapshots of the L0 MB-trees plus the committed run list in canonical
// search order — and publishes it through an atomic pointer.
// Get/GetAt/GetBatch/ProvQuery pin the current view with two atomic
// operations and search it without acquiring the engine mutex, concurrently
// with each other, with commits, and with background merges; Snapshot pins
// a view across many reads (consistent multi-key queries at one height).
// Reads therefore observe the state of the last committed block. Runs
// retired by a merge are reference-counted: their files are unlinked only
// after a durable manifest no longer names them AND the last view that
// could see them is released, so an in-flight reader can never touch a
// deleted file (see view.go).
//
// # Durability: the manifest writer
//
// A cascade's MANIFEST is the store's commit point (§4.3), but CommitBlock
// does not wait for it: it snapshots the manifest under the engine lock
// and hands it to the engine's one manifest writer (manifest.go), for
// COLE and COLE* alike. CheckpointHeight advances only when that write has
// landed, so it never names a height that is not on disk; FlushAll and
// Close wait for the writer, and a failed write fails the next
// CommitBlock, FlushAll or Close.
//
// A lookup hashes its address once per kind of filter (a bloom.MixProbe
// for the L0 groups, a SHA-256 bloom.NewProbe for the runs), searches
// runs whose learned indexes are resident, and pins value pages in the
// one page cache the store's engines share (pagefile.Cache); a set of
// that cache is the only lock it can touch, and it allocates nothing.
package core

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cole/internal/bloom"
	"cole/internal/hist"
	"cole/internal/mbtree"
	"cole/internal/merge"
	"cole/internal/obs"
	"cole/internal/pagefile"
	"cole/internal/run"
	"cole/internal/types"
	"cole/internal/vfs"
)

// Options configures an Engine. Zero values select the defaults; each
// field's comment names the non-test caller that sets it to something
// else (internal/lint holds the struct to that: a field nobody outside
// this package sets must sit in the lint's reasoned allow-list).
type Options struct {
	// Dir is the storage directory (created if absent). Required; every
	// caller sets it.
	Dir string
	// MemCapacity is B: the number of entries an in-memory group holds
	// before it is flushed at the next block commit. Default 4096.
	// Set by `coledb -memcap`, colebench's scale presets / `-memcap`, and
	// the examples (small B so a demo cascades). B sets where flushes
	// fall, and so Hstate: a store must be reopened with the B it was
	// created with. The manifest does not record B, so nothing checks
	// this until the format bump of ROADMAP item 8.
	MemCapacity int
	// SizeRatio is T: runs per level group before a merge. Default 4
	// (the paper's default). Set by `coledb -ratio` and colebench's fig13
	// sweep / `-ratio`.
	SizeRatio int
	// Fanout is m: the Merkle file fanout. Default 4 (the paper's best).
	// Set by `coledb -fanout` and colebench's fig15 sweep / `-fanout`.
	Fanout int
	// AsyncMerge selects COLE* (checkpoint-based asynchronous merge, §5)
	// over COLE (Algorithm 1) — the paper's comparison. Set by
	// `coledb -async`, every colebench experiment's COLE* rows, and the
	// benchmark's node_mixed workload.
	AsyncMerge bool
	// Shards is the number of independent engine partitions the address
	// space is hash-split across; 0 adopts the count the directory was
	// created with (1 for a fresh one). Consumed by the store layer
	// (internal/shard, cole.Open); an Engine always serves exactly one
	// shard and ignores this field. Set by `coledb -shards`,
	// `colebench -shards`, and the benchmark's node_mixed workload.
	Shards int
	// MergeWorkers bounds how many background flush/merge jobs run
	// concurrently. 0 selects GOMAXPROCS. A sharded store opens its
	// engines over one shared pool sized by this field, so the budget
	// covers every level of every shard; jobs beyond it queue, and the
	// resulting back-pressure surfaces as Stats.MergeWaits. Set by
	// `coledb -merge-workers`, `colebench -merge-workers` (the mergesched
	// sweep), and `-exp stalls`, which pins a one-worker pool.
	MergeWorkers int
	// Trace attaches an opt-in lifecycle event tracer: every flush, merge
	// (start/chunk/preempt/end) and commit phase (stall, manifest write,
	// view publish/retire) records a typed, timestamped event into the
	// tracer's fixed ring (internal/obs). nil (the default) disables
	// tracing; every recording site costs exactly one nil check when
	// disabled. A sharded store shares one tracer across all its
	// engines — events carry the shard that recorded them — and the
	// ring's drop count surfaces as Stats.TraceDropped. Set by
	// `colebench -trace-out` and the benchmark's traced round.
	Trace *obs.Tracer
	// VerifyReads makes every point lookup check the returned entry
	// against its stored Merkle leaf hash before serving it: silent
	// value-page damage surfaces as an ErrCorrupt (counted in
	// Stats.CorruptReads) instead of a wrong value. Costs one extra hash
	// read and one SHA-256 per run hit; off by default. A safety check
	// for operators who distrust their disks — no shipped tool turns it
	// on, the corruption matrix tests do.
	VerifyReads bool
	// FS is the filesystem every engine file lives on. nil (the default)
	// selects the real filesystem; the crash and I/O-error sweeps inject
	// fault-carrying implementations (internal/vfs), and reshard passes
	// its own through to the engines it installs.
	FS vfs.FS
}

func (o Options) withDefaults() Options {
	if o.MemCapacity == 0 {
		o.MemCapacity = 4096
	}
	if o.SizeRatio == 0 {
		o.SizeRatio = 4
	}
	if o.Fanout == 0 {
		o.Fanout = 4
	}
	o.FS = vfs.OrOS(o.FS)
	return o
}

func (o Options) validate() error {
	if o.Dir == "" {
		return fmt.Errorf("core: Options.Dir is required")
	}
	if o.MemCapacity < 1 {
		return fmt.Errorf("core: MemCapacity %d < 1", o.MemCapacity)
	}
	if o.SizeRatio < 2 {
		return fmt.Errorf("core: SizeRatio %d < 2", o.SizeRatio)
	}
	if o.Fanout < 2 {
		return fmt.Errorf("core: Fanout %d < 2", o.Fanout)
	}
	return nil
}

// runParams is the run-layer view of the options. Runs opened with it
// get private page caches; an engine's own runs share its cache
// (Engine.runParams).
func (o Options) runParams() run.Params {
	return run.Params{
		Fanout:      o.Fanout,
		VerifyReads: o.VerifyReads,
		FS:          o.FS,
	}
}

func (e *Engine) runParams() run.Params {
	p := e.opts.runParams()
	p.Cache = e.cache
	return p
}

// PageCacheBytes is the memory a store spends on cached value pages: one
// budget for every run of every shard. It is a constant because no caller
// needs another value (it equals what the 16-page per-file value caches
// it replaced added up to on a 16-run store; their index-file twins are
// not needed any more); it becomes an option the day two callers need
// different ones.
const PageCacheBytes = 1 << 20

// NewPageCache returns a store's page cache.
func NewPageCache() *pagefile.Cache {
	return pagefile.NewCache(pagefile.DefaultPageSize, PageCacheBytes/pagefile.DefaultPageSize)
}

// memGroup is one in-memory L0 group: an MB-tree plus an address Bloom
// filter used as a read accelerator. The filter is not part of Hstate (L0
// proofs come from the tree itself) and never leaves memory, so its bit
// positions come from bloom.MixProbe, not the SHA-256 of bloom.NewProbe
// that run filters need: a block's inserts pay one 64-bit mix per
// address, and readers probe it with a MixProbe too (searchView).
type memGroup struct {
	tree   *mbtree.Tree
	filter *bloom.Filter
}

// put inserts one state update at height blk.
func (g *memGroup) put(addr types.Address, blk uint64, value types.Value) {
	g.tree.Insert(types.CompoundKey{Addr: addr, Blk: blk}, value)
	g.filter.AddProbe(bloom.MixProbe(addr))
}

func newMemGroup(o Options) *memGroup {
	t, err := mbtree.New(mbtree.DefaultFanout)
	if err != nil {
		panic(err) // the constant fanout is valid by construction
	}
	return &memGroup{tree: t, filter: bloom.New(o.MemCapacity, run.BloomFP)}
}

// mergeState tracks one level's in-flight asynchronous merge.
type mergeState struct {
	done   chan struct{}
	newRun *run.Run
	err    error
	// elapsed is the wall time the job spent building its run, written
	// before done closes (merge-bandwidth accounting).
	elapsed time.Duration
}

// level is one on-disk level: two run groups (sync mode uses only the
// writing group) and the level's merge thread.
type level struct {
	groups  [2][]*runRef // committed runs (ref-counted), oldest first
	writing int          // index of the writing group
	merge   *mergeState  // in-flight merge of the merging group (async)
}

func (l *level) merging() int { return 1 - l.writing }

// Engine is a COLE store.
type Engine struct {
	opts Options

	mu        sync.Mutex
	committed uint64 // last committed height
	// checkpoint is the replay point of the current structure, which the
	// next manifest records: every block above it must be re-executed
	// after a crash. In sync mode it equals the last cascade height (the
	// flush is inline, so its runs are on disk). In async mode it is the
	// *previous* cascade height: the newest cascade handed the L0 merging
	// group to a background flush whose output commits only at the next
	// checkpoint, so blocks between the two cascades still live
	// exclusively in memory. CheckpointHeight reports durable instead.
	checkpoint  uint64
	lastCascade uint64 // height of the most recent flush cascade
	// durable is the replay point of the newest manifest on disk: it
	// trails checkpoint until the manifest writer lands that manifest.
	durable atomic.Uint64
	// peerCheckpoint is the lowest durable checkpoint among the other
	// shards of the store (SetPeerCheckpoint); MaxUint64 when there are
	// none.
	peerCheckpoint atomic.Uint64

	// L0.
	mem        [2]*memGroup
	memWriting int
	memMerge   *mergeState // flush thread of the L0 merging group (async)

	// On-disk levels; levels[0] is L1.
	levels    []*level
	nextRunID uint64

	// Deferred retirements: runs removed from the structure by a cascade
	// travel with the next manifest snapshot, and are marked retired (and
	// their files reclaimed by the last view holding them) only after a
	// durable manifest no longer references them.
	retiring []*runRef
	// mw lands manifests off the commit path (manifest.go).
	mw manifestWriter

	// rootHistory holds the most recent (height → Hstate) pairs. A
	// manifest persists the window of them replay can read, so replay can
	// reproduce the exact combined digests of blocks this engine's
	// checkpoint already covers (see HistoricalRoot).
	rootHistory rootRing

	// viewPtr is the currently-published read view. Readers pin it with
	// acquireView and never touch mu; CommitBlock/FlushAll swap in a fresh
	// view after every structural or L0 change.
	viewPtr atomic.Pointer[view]

	// sched runs every background flush/merge job; possibly shared with
	// other engines (one pool across all shards of a sharded store).
	sched *merge.Scheduler
	// cache holds the value pages point reads touch, for every run the
	// engine opens; shared with the other engines of a store like sched.
	cache *pagefile.Cache
	// fixedMergeChunk, when nonzero, replaces MergeQuantum's rule. Only
	// tests set it, to force maximal checkpoint interleaving.
	fixedMergeChunk int

	stats Stats // write-path counters, guarded by mu
	// Read-path counters are atomics: the lock-free read path must never
	// acquire mu. mergeWaits is also atomic because it is incremented
	// from job goroutines that may be queuing while the committing thread
	// holds mu waiting on those very jobs.
	gets        atomic.Int64
	provQueries atomic.Int64
	bloomSkips  atomic.Int64
	mergeWaits  atomic.Int64
	// preemptions counts chunked merges that handed their slot to
	// higher-priority work, incremented from merge-job goroutines.
	preemptions atomic.Int64
	// corruptReads counts typed corruption errors surfaced by the read
	// path (see Options.VerifyReads and types.ErrCorrupt).
	corruptReads atomic.Int64

	// tr is the opt-in lifecycle tracer (Options.Trace) and shardID the
	// shard tag its events carry. Both are set once at Open and never
	// change, so every recording site is guarded by a single nil check —
	// the whole cost of the disabled path.
	tr      *obs.Tracer
	shardID int32
	// hists are the always-on operation latency histograms: atomic
	// record (no lock, no allocation), snapshotted into Stats.Hist.
	hists OpHists
	// unregister removes this engine's metrics sources from the obs
	// exposition registry; called once from Close.
	unregister func()
}

// trace records one lifecycle event when tracing is enabled. The
// tr != nil check lives in the callers so the disabled path inlines to
// one branch without a call.
func (e *Engine) trace(typ obs.EventType, level int32, bytes int64, id uint64, dur time.Duration) {
	e.tr.Record(typ, e.shardID, level, bytes, id, dur)
}

// OpHists are the engine's always-on operation latency histograms, one
// HDR log-linear histogram (internal/hist) per public operation class.
// Recording is an atomic bucket increment, cheap enough to leave on
// unconditionally; Stats carries a snapshot, and the shard layer merges
// the per-shard snapshots so store-level quantiles reflect every shard.
type OpHists struct {
	// Commit is in-engine block latency: CommitBlock's call to published
	// view, L0 inserts included — the same quantity CommitNanos totals.
	Commit hist.Hist
	// PutBatch is the insert phase of CommitBlock (the lock and the
	// tree inserts of one block's updates); a block without updates
	// records none.
	PutBatch hist.Hist
	// Get covers single point lookups (Get/GetAt, engine or snapshot).
	Get hist.Hist
	// GetBatch covers whole batched lookups (latency per batch, not per
	// address).
	GetBatch hist.Hist
	// Prov covers provenance range queries including proof assembly.
	Prov hist.Hist
}

// Snapshot returns a point-in-time copy of every histogram.
func (h *OpHists) Snapshot() *OpHists {
	return &OpHists{
		Commit:   h.Commit.Snapshot(),
		PutBatch: h.PutBatch.Snapshot(),
		Get:      h.Get.Snapshot(),
		GetBatch: h.GetBatch.Snapshot(),
		Prov:     h.Prov.Snapshot(),
	}
}

// Merge folds another snapshot into this one (per-shard into store
// totals: counts sum, extremes take the cross-shard min/max).
func (h *OpHists) Merge(o *OpHists) {
	if o == nil {
		return
	}
	h.Commit.Merge(&o.Commit)
	h.PutBatch.Merge(&o.PutBatch)
	h.Get.Merge(&o.Get)
	h.GetBatch.Merge(&o.GetBatch)
	h.Prov.Merge(&o.Prov)
}

// Stats aggregates engine counters for the benchmark harness.
type Stats struct {
	Puts        int64
	Gets        int64
	ProvQueries int64
	Flushes     int64
	Merges      int64
	// BloomSkips counts runs that a point lookup skipped entirely because
	// the run's Bloom filter excluded the address (no learned-index
	// descent, no page reads).
	BloomSkips int64
	// MergeWaits counts back-pressure events on the merge pool: commit
	// checkpoints that had to block on an unfinished merge job, plus jobs
	// that found the shared worker pool saturated and queued before
	// starting.
	MergeWaits int64
	// PartitionWaits is always 0: a merge is one build and no longer
	// fans out. The field stays only because the benchmark harness still
	// reads it (merge.partition_waits), and goes when that harness next
	// changes.
	PartitionWaits int64
	// FlushBytes is the logical volume written by L0 flushes (entry bytes
	// of every flushed run); MergeBytes the volume written by level
	// sort-merges, where each entry is re-read, re-hashed (unless passed
	// through), and re-written. MergeNanos is the wall time spent inside
	// level-merge run builds, so MergeBytes/MergeNanos is the merge
	// bandwidth the compaction benchmark reports — the bandwidth that
	// gates sustained write TPS once levels deepen.
	FlushBytes int64
	MergeBytes int64
	MergeNanos int64
	// Commits counts committed blocks; CommitNanos their total in-engine
	// latency (CommitBlock's call to published view, L0 inserts
	// included) and
	// MaxCommitNanos the single worst commit — the tail the stall
	// benchmark and `coledb stat` bound.
	Commits        int64
	CommitNanos    int64
	MaxCommitNanos int64
	// StallNanos is the total time commit checkpoints spent blocked on
	// unfinished background merges (the slow-node path of Algorithm 5
	// line 9) — the cliff that preemption exists to shorten.
	StallNanos int64
	// PaceNanos is always 0: the engine no longer paces ingest. The
	// field stays only because the benchmark harness still reads it
	// (core.pace_ms), and goes when that harness next changes.
	PaceNanos int64
	// Preemptions counts chunked-merge checkpoints that handed their
	// worker slot to queued higher-priority work (every MergeQuantum
	// entries).
	Preemptions int64
	// PageReads / CacheHits aggregate the point-read page-cache counters
	// across the store's runs: value pages read from disk vs found in the
	// cache (learned indexes are resident and touch neither). Streaming
	// merges never touch the cache, so a busy compaction does not depress
	// the hit rate. SeqReads counts the cache-bypassing readahead fetches
	// of streaming merge readers — the compaction read traffic the other
	// two deliberately exclude.
	PageReads int64
	CacheHits int64
	SeqReads  int64
	// TraceDropped is how many lifecycle events did not fit in the
	// tracer's ring buffer (0 when tracing is off). A sharded store
	// shares one tracer, so its Stats reports the max across shards, not
	// the sum.
	TraceDropped int64
	// CorruptReads counts point/provenance lookups that failed with a
	// typed corruption error (types.ErrCorrupt) instead of returning
	// data: a nonzero value means a run file served by this store failed
	// an integrity check and the store needs an fsck.
	CorruptReads int64
	// Hist is a snapshot of the always-on operation latency histograms.
	// Excluded from JSON (reports carry percentile summaries instead)
	// and inlined by the metrics walker (cole_commit_latency_seconds,
	// not cole_hist_commit_latency_seconds).
	Hist *OpHists `json:"-" obs:"inline"`
}

// OpenShared creates or reopens a COLE store whose background flush/merge
// jobs run on sched and whose point reads cache pages in cache; a nil
// sched gets a private pool of opts.MergeWorkers workers, a nil cache a
// private NewPageCache. The shard layer opens all its engines over one
// scheduler and one cache so the merge budget and the memory budget cover
// the whole store, and passes each engine's position as shardIndex: it
// tags the engine's telemetry (trace events, metric labels) and has no
// effect on storage or digests.
func OpenShared(opts Options, sched *merge.Scheduler, cache *pagefile.Cache, shardIndex int) (*Engine, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	ownPool := sched == nil
	if ownPool {
		sched = merge.New(opts.MergeWorkers)
	}
	if cache == nil {
		cache = NewPageCache()
	}
	e := &Engine{opts: opts, sched: sched, cache: cache, tr: opts.Trace, shardID: int32(shardIndex)}
	e.mw.idle.L = &e.mw.mu
	e.peerCheckpoint.Store(math.MaxUint64)
	for i := range e.mem {
		e.mem[i] = newMemGroup(opts)
	}
	if err := e.loadManifest(); err != nil {
		return nil, err
	}
	if err := e.cleanOrphans(); err != nil {
		e.closeRuns()
		return nil, err
	}
	if opts.AsyncMerge {
		// §4.3: restart the aborted level merges for merging groups that
		// were full at the checkpoint.
		e.restartMerges()
	}
	// Publish the initial read view (the reopened structure with empty L0
	// groups) so readers are lock-free from the first Get.
	e.publishLocked(e.hashListLocked())
	// Register with the metrics exposition (/metrics serves every open
	// engine's counters, labeled by store and shard). An engine that owns
	// its merge pool also exposes the pool; for a shared pool the shard
	// layer registers it once for the whole store.
	labels := []obs.Label{{Key: "store", Value: opts.Dir}, {Key: "shard", Value: strconv.Itoa(shardIndex)}}
	unregStats := obs.Register("", func() any { return e.Stats() }, labels...)
	if ownPool {
		unregSched := obs.Register("sched", func() any { return sched.Stats() }, obs.Label{Key: "store", Value: opts.Dir})
		e.unregister = func() { unregStats(); unregSched() }
	} else {
		e.unregister = unregStats
	}
	return e, nil
}

// decorateCorrupt stamps the engine's identity onto a typed corruption
// error bubbling out of the run layer: the store directory always, and
// the LSM level when the caller knows it (level ≥ 1; 0 leaves it
// unattributed). Non-corruption errors pass through untouched.
func (e *Engine) decorateCorrupt(err error, level int) error {
	var ec *types.ErrCorrupt
	if !errors.As(err, &ec) {
		return err
	}
	if ec.Store == "" {
		ec.Store = e.opts.Dir
	}
	if ec.Level < 0 && level > 0 {
		ec.Level = level
	}
	return err
}

// noteCorrupt is decorateCorrupt for the lock-free read path: it also
// counts the event in Stats.CorruptReads (atomically — readers never
// take mu).
func (e *Engine) noteCorrupt(err error) error {
	var ec *types.ErrCorrupt
	if !errors.As(err, &ec) {
		return err
	}
	e.corruptReads.Add(1)
	if ec.Store == "" {
		ec.Store = e.opts.Dir
	}
	return err
}

// cleanOrphans removes run files not referenced by the manifest: leftovers
// of interrupted merges, of deletions that raced a crash, or of retired
// runs whose last reader never released before the process died.
func (e *Engine) cleanOrphans() error {
	referenced := make(map[string]bool)
	for _, lv := range e.levels {
		for g := 0; g < 2; g++ {
			for _, rr := range lv.groups[g] {
				for _, f := range run.Files(rr.r.ID) {
					referenced[f] = true
				}
			}
		}
	}
	entries, err := e.opts.FS.ReadDir(e.opts.Dir)
	if err != nil {
		return err
	}
	for _, de := range entries {
		name := de.Name()
		if !strings.HasPrefix(name, "run-") {
			continue
		}
		if !referenced[name] {
			if err := e.opts.FS.Remove(filepath.Join(e.opts.Dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// restartMerges resumes interrupted background merges after reopen: any
// full merging group gets its thread back.
func (e *Engine) restartMerges() {
	for i, lv := range e.levels {
		mg := lv.groups[lv.merging()]
		if len(mg) == e.opts.SizeRatio && lv.merge == nil {
			e.startLevelMerge(i)
		}
	}
}

// Height returns the last committed block height.
func (e *Engine) Height() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.committed
}

// Stats returns a snapshot of the engine counters. Read counters are
// atomics fed by the lock-free read path; write counters are gathered
// under the engine lock. PageReads/CacheHits sum the live runs' current
// value-page counters plus the totals of runs already merged away
// (accumulated into e.stats when the manifest that drops them is
// snapshotted).
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	st := e.stats
	for _, lv := range e.levels {
		for g := 0; g < 2; g++ {
			for _, rr := range lv.groups[g] {
				v, i := rr.r.IOStats()
				st.PageReads += v.PageReads + i.PageReads
				st.CacheHits += v.CacheHits + i.CacheHits
				st.SeqReads += v.SeqReads + i.SeqReads
			}
		}
	}
	e.mu.Unlock()
	st.Gets = e.gets.Load()
	st.ProvQueries = e.provQueries.Load()
	st.BloomSkips = e.bloomSkips.Load()
	st.MergeWaits = e.mergeWaits.Load()
	st.Preemptions = e.preemptions.Load()
	st.CorruptReads = e.corruptReads.Load()
	st.TraceDropped = e.tr.Dropped()
	st.Hist = e.hists.Snapshot()
	return st
}

// noteMergeWait records one back-pressure event. Safe from job goroutines:
// it must not take e.mu (the committer may hold it while waiting on the
// job that is reporting the wait).
func (e *Engine) noteMergeWait() { e.mergeWaits.Add(1) }

// Scheduler exposes the engine's merge pool (shared across shards when
// the store is sharded), for introspection and tests.
func (e *Engine) Scheduler() *merge.Scheduler { return e.sched }

// MemEntries returns the entry counts of the two L0 groups
// (writing, merging).
func (e *Engine) MemEntries() (int, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mem[e.memWriting].tree.Size(), e.mem[1-e.memWriting].tree.Size()
}

// StorageBreakdown reports on-disk bytes split into value-file data and
// index overhead (learned index + Merkle files + metadata), plus total
// entries, for the storage experiments.
type StorageBreakdown struct {
	DataBytes  int64
	IndexBytes int64
	Entries    int64
	Runs       int
	Levels     int
}

// Storage walks the committed runs and sums their file sizes.
func (e *Engine) Storage() StorageBreakdown {
	e.mu.Lock()
	defer e.mu.Unlock()
	var sb StorageBreakdown
	sb.Levels = len(e.levels)
	for _, lv := range e.levels {
		for g := 0; g < 2; g++ {
			for _, rr := range lv.groups[g] {
				d, i := rr.r.SizeOnDisk()
				sb.DataBytes += d
				sb.IndexBytes += i
				sb.Entries += rr.r.Count()
				sb.Runs++
			}
		}
	}
	return sb
}

func (e *Engine) closeRuns() {
	for _, lv := range e.levels {
		for g := 0; g < 2; g++ {
			for _, rr := range lv.groups[g] {
				_ = rr.r.Close()
			}
		}
	}
}

// Close waits for the manifest writer, joins background merges and
// releases file handles. In-memory L0 contents are *not* flushed: like
// the paper's crash model, they are recovered by replaying blocks above
// CheckpointHeight. Use FlushAll first for a clean shutdown that persists
// everything. Readers (and pinned Snapshots) must quiesce before Close:
// reads racing a Close fail with a closed-file error. Close returns the
// manifest writer's sticky error, if a write failed.
func (e *Engine) Close() error {
	// Leave the metrics registry first so new scrapes stop observing the
	// engine. A scrape already in flight may still call Stats(), which
	// stays safe after close — counters are plain fields and atomics.
	if e.unregister != nil {
		e.unregister()
		e.unregister = nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	err := e.drainManifests()
	// Join the in-flight jobs and discard their uncommitted outputs; the
	// files become orphans that the next Open cleans up.
	discard := func(ms *mergeState) {
		if ms == nil {
			return
		}
		<-ms.done
		if ms.newRun != nil {
			_ = ms.newRun.Close()
		}
	}
	discard(e.memMerge)
	for _, lv := range e.levels {
		discard(lv.merge)
	}
	e.closeRuns()
	return err
}
