// Package cole is a column-based learned storage engine for blockchain
// systems — a from-scratch Go reproduction of COLE (Zhang, Xu, Hu, Xu,
// FAST 2024).
//
// COLE stores every historical version of a ledger state ("column")
// under a compound key ⟨address, block height⟩ in an LSM-organized store
// whose on-disk runs are indexed by learned models and authenticated by
// m-ary Merkle files. Compared with Ethereum's Merkle Patricia Trie it
// removes index-node persistence entirely: the paper measures up to 94%
// smaller storage and 1.4–5.4× higher throughput, with provenance
// queries answered from contiguous version runs.
//
// # Quick start
//
//	store, err := cole.Open(cole.Options{Dir: "ledger"})
//	...
//	store.BeginBlock(1)
//	store.Put(cole.AddressFromString("alice"), cole.ValueFromUint64(100))
//	hstate, _ := store.Commit()
//
//	v, ok, _ := store.Get(cole.AddressFromString("alice"))
//
//	versions, proof, _ := store.Prov(addr, 1, 100)
//	verified, err := proof.Verify(hstate, addr, 1, 100)
//
// Two write strategies are available: the default synchronous merge
// (Algorithm 1) and the checkpoint-based asynchronous merge of §5
// (Options.AsyncMerge), which removes write stalls while keeping the
// state root digest deterministic across nodes. That is the write
// path's only fork: either way a commit that restructures the store
// writes its manifest before it returns, so CheckpointHeight never
// names a height that is not yet durable, and background merges are
// always chunked and preemptible by a waiting flush.
//
// There is one store type: Open serves Options.Shards ≥ 1 hash-partitioned
// engines (one engine lives at the directory root, exactly as an
// unsharded store always has). Block-oriented ingestion should use
// PutBatch, which applies a block's updates under one lock acquisition
// per shard, routed in one pass; background merges across all levels and
// shards run on one bounded worker pool sized by Options.MergeWorkers.
//
// Reads are lock-free over published views and cost what the paper's
// Algorithms 6 and 7 say: the address is hashed once for every Bloom
// filter of the view, each run's learned index is resident (decoded when
// the run is opened, a small fraction of its Bloom filter's size), a
// search touches at most two value pages, and nothing is allocated. Value
// pages are cached in one fixed 1 MiB cache per store, shared by every run
// of every shard — there is no cache option to size.
//
// The implementation lives in internal/ packages (engine, learned index,
// Merkle files, MB-tree, and the paper's baselines); this package is the
// stable public surface.
package cole

import (
	"errors"
	"net/http"

	"cole/internal/core"
	"cole/internal/obs"
	"cole/internal/reshard"
	"cole/internal/run"
	"cole/internal/shard"
	"cole/internal/types"
)

// Address identifies a ledger state (fixed 20 bytes).
type Address = types.Address

// Value is a fixed-size (32-byte) state value.
type Value = types.Value

// Hash is a SHA-256 digest.
type Hash = types.Hash

// Options configures a Store; zero values select the paper's defaults
// (T = 4, m = 4, 4 KiB pages).
type Options = core.Options

// Update is one pending state write of a batch: Addr receives Value at
// the height of the block the batch is applied to.
type Update = types.Update

// Version is one provenance result: the value held from block Blk.
type Version = core.Version

// Proof is one engine's provenance proof: what Prov returns on a
// one-shard store, and the Inner part of a ShardProof.
type Proof = core.Proof

// Stats aggregates engine counters.
type Stats = core.Stats

// OpHists is the set of always-on operation latency histograms carried
// by Stats.Hist: Commit, PutBatch, Get, GetBatch, and Prov, one HDR
// histogram each (~1.6% relative error), recorded in-engine on every
// operation and summed across shards by a sharded store's Stats.
type OpHists = core.OpHists

// Tracer is a fixed-size, lock-free ring of engine lifecycle events
// (flush/merge/commit phases, preemptions, view publishes). Set one on
// Options.Trace to record a run, then export it with WriteJSONL or
// WriteChromeTrace (the latter opens in Perfetto / chrome://tracing). A
// single tracer may be shared by every shard of a store; events carry
// the recording shard. When the ring fills, further events are dropped
// and counted (Stats.TraceDropped), never overwritten.
type Tracer = obs.Tracer

// TraceEvent is one recorded lifecycle event.
type TraceEvent = obs.Event

// NewTracer returns a tracer holding up to capacity events; capacity
// <= 0 selects the default (256K events, ~14 MB).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// MetricsHandler returns an http.Handler serving the Prometheus text
// exposition of every open store's counters and latency histograms
// (engines register themselves on Open and unregister on Close),
// labeled by store directory and shard.
func MetricsHandler() http.Handler { return obs.Handler() }

// MetricsMux returns a mux with the metrics exposition at /metrics and
// the standard net/http/pprof profiling endpoints at /debug/pprof/.
func MetricsMux() *http.ServeMux { return obs.Mux() }

// ServeMetrics starts an HTTP server on addr (e.g. "localhost:9090")
// serving MetricsMux. It returns the bound address (useful with a :0
// port), a shutdown function, and any listen error.
func ServeMetrics(addr string) (string, func() error, error) { return obs.Serve(addr) }

// ErrCorrupt is the typed error every read and scrub path reports when
// a store file's bytes fail an integrity invariant (checksum mismatch,
// Merkle hash mismatch, broken key ordering, a learned model that breaks
// its error bound, truncation): it pins the damage to a store, shard,
// level, file, and page instead of returning garbage or panicking. Match
// it with errors.As or AsCorrupt; Stats.CorruptReads counts reads that
// hit one.
// A store that surfaces ErrCorrupt needs an offline VerifyStore
// (`coledb fsck`) and restore/re-sync of the damaged files.
type ErrCorrupt = types.ErrCorrupt

// AsCorrupt extracts the typed corruption attribution from err (or any
// error it wraps); ok is false when err carries none.
func AsCorrupt(err error) (ec *ErrCorrupt, ok bool) {
	ok = errors.As(err, &ec)
	return ec, ok
}

// Finding is one integrity defect VerifyStore pinned to a file.
type Finding = run.Finding

// VerifyStore scrubs a closed store directory and reports every
// integrity defect: layout and manifest files, and every run's metadata
// checksum, file geometry, and stored Merkle root. A full
// scrub (fast=false) additionally re-walks every entry, recomputes every
// Merkle node, and proves learned-index coverage for every key. The
// store must not be open. notes carries non-fatal observations (orphan
// files a reopen sweeps); err is operational only — corruption is
// reported through findings, never err.
func VerifyStore(dir string, fast bool) (findings []Finding, notes []string, err error) {
	return shard.VerifyStore(nil, dir, fast)
}

// ReadResult is one point-lookup outcome of a batched read: the value,
// the height it was written at, and whether the address exists.
type ReadResult = core.ReadResult

// StorageBreakdown reports on-disk bytes split into data and index.
type StorageBreakdown = core.StorageBreakdown

// AddressFromString derives an address from a string identifier.
func AddressFromString(s string) Address { return types.AddressFromString(s) }

// AddressFromBytes derives an address from raw bytes (hashing when not
// exactly 20 bytes).
func AddressFromBytes(b []byte) Address { return types.AddressFromBytes(b) }

// ValueFromUint64 encodes an integer as a state value.
func ValueFromUint64(x uint64) Value { return types.ValueFromUint64(x) }

// ValueFromBytes encodes arbitrary bytes as a state value (hashing
// oversized input).
func ValueFromBytes(b []byte) Value { return types.ValueFromBytes(b) }

// DB is the store surface as an interface: every operation a workload
// driver, tool, or embedder needs, implemented by *Store. Code that takes
// a DB can be handed a test double or a wrapper instead of a store.
type DB interface {
	// BeginBlock starts block `height` (monotone; COLE does not fork).
	BeginBlock(height uint64) error
	// Put writes a state update into the open block.
	Put(addr Address, v Value) error
	// PutBatch applies a block's updates under one lock acquisition.
	PutBatch(updates []Update) error
	// Commit seals the open block and returns the state root digest.
	Commit() (Hash, error)
	// Get returns the latest committed value of addr (lock-free).
	Get(addr Address) (Value, bool, error)
	// GetAt returns the value of addr active at block height blk.
	GetAt(addr Address, blk uint64) (Value, uint64, bool, error)
	// GetBatch resolves many point lookups against one committed state.
	GetBatch(addrs []Address) ([]ReadResult, error)
	// Snapshot pins the current committed state for consistent reads.
	Snapshot() *Snapshot
	// Prov answers a provenance query with a verifiable proof handle.
	Prov(addr Address, blkLo, blkHi uint64) ([]Version, ProvProof, error)
	// Export streams every live entry, sorted by ⟨address, height⟩.
	Export(fn func(addr Address, blk uint64, v Value) error) (int64, error)
	// RootDigest returns the current state root digest.
	RootDigest() Hash
	// Height returns the last committed block height.
	Height() uint64
	// CheckpointHeight returns the recovery point (§4.3).
	CheckpointHeight() uint64
	// Storage reports the on-disk footprint.
	Storage() StorageBreakdown
	// Stats returns engine counters.
	Stats() Stats
	// FlushAll persists the in-memory level for a clean shutdown.
	FlushAll() error
	// Close joins background work and releases resources.
	Close() error
}

var _ DB = (*Store)(nil)

// ProvProof is the provenance proof handle Prov returns: a *Proof from a
// one-shard store (the combined digest IS that engine's Hstate), a
// *ShardProof otherwise. Verify checks it against the root digest
// published in a block header and returns the authenticated versions,
// newest first; Size approximates its wire size in bytes.
type ProvProof = shard.ProvProof

// ShardProof authenticates a provenance query against a multi-shard
// store's combined digest: the owning shard's inner COLE proof plus the
// shard index and the Merkle path of its root.
type ShardProof = shard.Proof

// Store is a COLE store: Options.Shards independent engines (one by
// default) that hash-partition the address space and commit in parallel.
// One engine lives directly in Options.Dir, several in shard-NN
// subdirectories. The per-block digest deterministically combines the
// per-shard Hstate roots; with one shard it is that engine's Hstate, so
// digests and proofs are those of the unsharded engine of the paper.
//
// Reads (Get, GetAt, GetBatch, Prov, Snapshot) are lock-free and
// snapshot-isolated: they observe the state of the last committed block,
// never the writes of a block still being built, and run concurrently
// with commits, merges, and each other. Close drops the directory lock;
// unflushed L0 data is recovered by replaying blocks above
// CheckpointHeight, so call FlushAll first to avoid replay.
type Store = shard.Store

// Open creates or reopens a store in opts.Dir. Shards = 0 adopts the count
// persisted in the directory (1 for a fresh one, and for a legacy
// directory written before stores pinned their layout); an explicit count
// must match the persisted one on reopen. The directory's advisory lock
// is held until Close, so concurrent opens and offline reshards fail
// loudly.
func Open(opts Options) (*Store, error) { return shard.Open(opts) }

// ShardedStore is Store.
//
// Deprecated: use Store.
type ShardedStore = Store

// OpenSharded is Open.
//
// Deprecated: use Open.
func OpenSharded(opts Options) (*Store, error) { return Open(opts) }

// Snapshot is a pinned, immutable read handle on a store's committed
// state at one block height (Height, Root, Get, GetAt, GetBatch). All
// reads through it are lock-free and mutually consistent across every
// shard, and run concurrently with commits and background merges.
// Snapshots pin resources: Release them (idempotent) so run files retired
// by merges can be reclaimed.
type Snapshot = shard.Snapshot

// ShardStat is one shard's balance snapshot (Store.ShardStats): stored
// entries, on-disk bytes, routed writes, and merge back-pressure events.
// A persistently lopsided entry/byte spread is the cue that a Reshard is
// worth its rewrite cost.
type ShardStat = shard.ShardStat

// ReshardOptions tunes an offline Reshard; the zero value uses the store
// defaults. Structural parameters (size ratio, MHT fanout, merge mode)
// are always inherited from the source store.
type ReshardOptions = reshard.Options

// ReshardReport summarizes a completed Reshard: entry and byte volume,
// per-destination counts, imbalance, and wall-clock duration.
type ReshardReport = reshard.Report

// Reshard rewrites the store in dir from its current partition count to
// `shards` partitions offline — no replay from genesis, no per-key
// re-insertion. One pass over the source runs counts each destination
// shard's entries; then one merge of the source runs routes every live
// key/version to its destination, whose bottom-level run, learned index,
// Merkle file, and Bloom filter are bulk-built from that stream, with no
// intermediate files. The installation commits through a single
// atomic SHARDS rename, so a reshard interrupted at any point leaves the
// original store fully intact and readable.
//
// The store must be closed (Reshard needs exclusive ownership of the
// directory) and cleanly flushed: all shards' durable checkpoints must
// agree, which FlushAll before shutdown guarantees; a store that crashed
// mid-operation must be opened and replayed first.
//
// Root epochs: the combined digest folds the per-shard roots, so it
// necessarily changes with the partition count. Reshard starts a new
// root epoch at the store's durable height — every Get/GetAt/GetBatch
// answer and every provenance version list is byte-identical before and
// after, and new proofs verify against the new epoch's digests, but
// combined digests published before the reshard can no longer be
// reproduced by the rewritten store (the per-shard root histories
// restart empty).
func Reshard(dir string, shards int, opts ReshardOptions) (*ReshardReport, error) {
	return reshard.Reshard(dir, shards, opts)
}
