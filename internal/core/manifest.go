package core

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cole/internal/obs"
	"cole/internal/run"
	"cole/internal/types"
	"cole/internal/vfs"
)

// This file is the engine's durable structure: the MANIFEST format, its
// one reader and one writer, the writer that lands a cascade's manifest
// after Commit has returned, and the root history a manifest persists a
// window of.

// manifest is the durable structural snapshot (root_hash_list's backing
// state). It is written atomically (temp + rename) before any run file it
// no longer names is deleted, which is COLE's atomicity argument (§4.3).
type manifest struct {
	// Height is the block height whose commit produced this structure.
	Height uint64 `json:"height"`
	// Replay is the recovery point: blocks above it must be re-executed
	// after reopening (see Engine.checkpoint).
	Replay     uint64 `json:"replay"`
	NextRunID  uint64 `json:"next_run_id"`
	MemWriting int    `json:"mem_writing"`
	Async      bool   `json:"async"`
	// SortedBatch is only ever read: older versions set it on stores
	// whose L0 trees were bulk-loaded in sorted order, a shape this
	// version no longer builds, so Open refuses such a store (see
	// loadManifest). Runs never depended on it, so reshard accepts it
	// and writes a manifest without it.
	SortedBatch bool         `json:"sorted_batch,omitempty"`
	SizeRatio   int          `json:"size_ratio"`
	Fanout      int          `json:"fanout"`
	Levels      []levelState `json:"levels"`
	// Roots is the window of the engine's root history that post-crash
	// replay can read (oldest first): the Hstate digests of the heights a
	// replay-skipped shard must contribute (see Engine.snapshotManifestLocked).
	// Older versions persisted the whole history; Open reads either.
	Roots []RootRecord `json:"roots,omitempty"`
}

// RootRecord is one retained (height → Hstate) pair of the root history.
type RootRecord struct {
	Height uint64 `json:"h"`
	// Root is the hex-encoded Hstate digest of the commit at Height.
	Root hexHash `json:"r"`
}

// hexHash JSON-encodes a digest as a hex string (the manifest would
// otherwise serialize [32]byte as an integer array).
type hexHash types.Hash

func (h hexHash) MarshalJSON() ([]byte, error) {
	return json.Marshal(types.Hash(h).String())
}

func (h *hexHash) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != types.HashSize {
		return fmt.Errorf("core: bad root digest %q", s)
	}
	copy(h[:], raw)
	return nil
}

type levelState struct {
	Writing int         `json:"writing"`
	Groups  [2][]uint64 `json:"groups"`
}

// manifestPath is the MANIFEST file of the engine directory dir.
func manifestPath(dir string) string { return filepath.Join(dir, "MANIFEST") }

// readManifest is the one MANIFEST parser: Open, ReadStoreState
// (reshard) and VerifyStore (fsck) all read through it, so they apply
// the same checks. A directory without a MANIFEST is a fresh (never
// cascaded) engine and yields nil, nil. A file that does not parse, or
// that records T < 2, m < 2 or the same run id twice, fails closed with
// a *types.ErrCorrupt pinned to the MANIFEST.
func readManifest(fsys vfs.FS, dir string) (*manifest, error) {
	path := manifestPath(dir)
	raw, err := fsys.ReadFile(path)
	if errors.Is(err, iofs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		ec := types.NewCorrupt(path, -1, fmt.Sprintf("manifest does not parse: %v", err))
		ec.Err = err
		return nil, ec
	}
	if m.SizeRatio < 2 || m.Fanout < 2 {
		return nil, types.NewCorrupt(path, -1, fmt.Sprintf("manifest parameters T=%d m=%d out of range", m.SizeRatio, m.Fanout))
	}
	seen := make(map[uint64]bool)
	for li, ls := range m.Levels {
		for _, ids := range ls.Groups {
			for _, id := range ids {
				if seen[id] {
					return nil, types.NewCorrupt(path, -1, fmt.Sprintf("run %d referenced twice (level %d)", id, li+1))
				}
				seen[id] = true
			}
		}
	}
	return &m, nil
}

// runIDs lists every run the manifest records, level by level, group 0
// before group 1.
func (m *manifest) runIDs() []uint64 {
	var ids []uint64
	for _, ls := range m.Levels {
		ids = append(ids, ls.Groups[0]...)
		ids = append(ids, ls.Groups[1]...)
	}
	return ids
}

// writeManifestFile is the one MANIFEST writer: it replaces dir's
// MANIFEST with m atomically and durably (temp fsync + rename + parent
// directory fsync) and returns the number of bytes written.
func writeManifestFile(fsys vfs.FS, dir string, m *manifest) (int, error) {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return 0, err
	}
	return len(raw), vfs.WriteFileAtomic(fsys, manifestPath(dir), raw, 0o644)
}

func (e *Engine) loadManifest() error {
	m, err := readManifest(e.opts.FS, e.opts.Dir)
	if err != nil {
		return e.decorateCorrupt(err, 0)
	}
	if m == nil {
		return nil // fresh store
	}
	if m.SortedBatch {
		return fmt.Errorf("core: %s records sorted_batch=true, an L0 insert order this version no longer builds; migrate the store offline with `coledb reshard <current shard count>`", manifestPath(e.opts.Dir))
	}
	if m.Async != e.opts.AsyncMerge {
		return fmt.Errorf("core: store was created with async=%v, reopened with async=%v", m.Async, e.opts.AsyncMerge)
	}
	if m.SizeRatio != e.opts.SizeRatio || m.Fanout != e.opts.Fanout {
		return fmt.Errorf("core: store parameters T=%d m=%d do not match requested T=%d m=%d",
			m.SizeRatio, m.Fanout, e.opts.SizeRatio, e.opts.Fanout)
	}
	// Resume from the replay point: the on-disk structure is newer (it
	// reflects the cascade at m.Height), but re-executing blocks in
	// (Replay, crash] reconstructs the lost in-memory groups; the cascade
	// at m.Height re-triggers as a pure L0 switch without re-committing
	// level merges (their writing groups are all below the size ratio
	// after a completed cascade).
	e.height = m.Replay
	e.committed = m.Replay
	e.checkpoint = m.Replay
	e.durable.Store(m.Replay)
	e.lastCascade = m.Replay
	e.nextRunID = m.NextRunID
	e.memWriting = m.MemWriting
	// A manifest written by an older version may hold roots above Replay
	// (it persisted the whole history); replayed blocks re-record
	// identical digests over those entries.
	for _, r := range m.Roots {
		e.rootHistory.record(r.Height, types.Hash(r.Root))
	}
	for li, ls := range m.Levels {
		lv := &level{writing: ls.Writing}
		for g := 0; g < 2; g++ {
			for _, id := range ls.Groups[g] {
				r, err := run.Open(e.opts.Dir, id, e.runParams())
				if err != nil {
					return fmt.Errorf("core: open run %d of level %d: %w", id, li+1, e.decorateCorrupt(err, li+1))
				}
				lv.groups[g] = append(lv.groups[g], newRunRef(r))
			}
		}
		e.levels = append(e.levels, lv)
	}
	return nil
}

// CheckpointHeight returns the height of the last durable checkpoint:
// after a crash, blocks above this height must be replayed (§4.3). It is
// the replay point of the newest manifest that has landed on disk, so it
// never names a height that is not yet durable; a cascade's commit
// returns before its manifest lands, and the checkpoint advances when it
// does.
func (e *Engine) CheckpointHeight() uint64 { return e.durable.Load() }

// SetPeerCheckpoint tells a shard engine the lowest durable checkpoint
// among the other shards of its store. The shard layer passes it down
// before every Commit and FlushAll; it bounds the root window the
// engine's next manifest persists. A stale value is lower than the true
// one, so it only widens that window. An engine that is not told any
// (a standalone engine, or the only shard of a store) has no peer that
// replay could skip for it, and persists no roots.
func (e *Engine) SetPeerCheckpoint(height uint64) { e.peerCheckpoint.Store(height) }

// snapshotManifestLocked captures the current structure as a manifest,
// together with the runs the cascades since the last snapshot removed,
// for the manifest writer.
//
// Its roots are the window replay can read. After a crash, replay starts
// at the store's lowest on-disk checkpoint C, and a shard whose own
// checkpoint c lies above it is skipped for the heights (C, c], to which
// it contributes HistoricalRoot. If this manifest lands, c is its Replay,
// and C is at least min(Replay, the peers' durable checkpoint as of now):
// checkpoints never move back. So the window (that minimum, Replay] is
// every root replay can ask this manifest for. It is empty for an engine
// without peers.
func (e *Engine) snapshotManifestLocked() *manifestJob {
	m := manifest{
		Height:     e.committed,
		Replay:     e.checkpoint,
		NextRunID:  e.nextRunID,
		MemWriting: e.memWriting,
		Async:      e.opts.AsyncMerge,
		SizeRatio:  e.opts.SizeRatio,
		Fanout:     e.opts.Fanout,
		Roots:      e.rootHistory.window(min(e.peerCheckpoint.Load(), e.checkpoint), e.checkpoint),
	}
	for _, lv := range e.levels {
		ls := levelState{Writing: lv.writing}
		for g := 0; g < 2; g++ {
			ids := []uint64{}
			for _, rr := range lv.groups[g] {
				ids = append(ids, rr.r.ID)
			}
			ls.Groups[g] = ids
		}
		m.Levels = append(m.Levels, ls)
	}
	// Fold the removed runs' point-read cache counters into the engine
	// totals now, while they are still under the lock, so Stats stays
	// cumulative across merges.
	for _, rr := range e.retiring {
		v, _ := rr.r.IOStats()
		e.stats.PageReads += v.PageReads
		e.stats.CacheHits += v.CacheHits
		e.stats.SeqReads += v.SeqReads
	}
	j := &manifestJob{m: m, retiring: e.retiring}
	e.retiring = nil
	return j
}

// manifestJob is one manifest snapshot on its way to disk, with the runs
// its structure no longer names: they are retired once it has landed.
type manifestJob struct {
	m        manifest
	retiring []*runRef
}

// manifestWriter lands an engine's manifests off the commit path. A
// cascade snapshots the manifest under the engine lock and hands it over,
// and Commit returns without waiting for the disk. Writes land in
// snapshot order with at most one in flight: a snapshot handed over while
// another is queued replaces it and inherits its retirements, because its
// structure supersedes the queued one. Only a landed manifest advances
// the durable checkpoint and retires runs, so no run a durable manifest
// still names is deleted. A failed write is sticky: the writer stops, and
// the engine's next Commit, FlushAll and Close return the error.
//
// The writer never takes the engine lock, so Commit, FlushAll and Close
// can wait for it while holding that lock.
type manifestWriter struct {
	mu     sync.Mutex
	idle   sync.Cond // signalled when busy drops to false; L is &mu
	queued *manifestJob
	busy   bool // a writer goroutine is running
	err    error
}

// submitManifestLocked snapshots the manifest and hands it to the writer,
// starting the writer goroutine if none is running.
func (e *Engine) submitManifestLocked() {
	j := e.snapshotManifestLocked()
	w := &e.mw
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return // the engine is failed; its old manifest still names these runs
	}
	if w.queued != nil {
		j.retiring = append(w.queued.retiring, j.retiring...)
	}
	w.queued = j
	if !w.busy {
		w.busy = true
		go e.writeManifests()
	}
}

// writeManifests is the writer goroutine: it lands queued snapshots until
// none is left or one fails.
func (e *Engine) writeManifests() {
	w := &e.mw
	for {
		w.mu.Lock()
		j := w.queued
		w.queued = nil
		if j == nil || w.err != nil {
			w.busy = false
			w.idle.Broadcast()
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
		if err := e.landManifest(j); err != nil {
			w.mu.Lock()
			w.err = err
			w.mu.Unlock()
		}
	}
}

// landManifest writes one snapshot and, once it is durable, advances the
// checkpoint to its replay point and retires the runs it no longer
// names: views still pinning them keep their files alive, and the last
// release unlinks them.
func (e *Engine) landManifest(j *manifestJob) error {
	start := time.Now()
	n, err := writeManifestFile(e.opts.FS, e.opts.Dir, &j.m)
	if e.tr != nil {
		e.trace(obs.EvManifest, -1, int64(n), 0, time.Since(start))
	}
	if err != nil {
		return err
	}
	e.durable.Store(j.m.Replay)
	for _, rr := range j.retiring {
		rr.retired.Store(true)
		rr.release()
		if e.tr != nil {
			e.trace(obs.EvViewRetire, -1, rr.r.Count()*types.EntrySize, rr.r.ID, 0)
		}
	}
	return nil
}

// drainManifests waits until every handed-over manifest has landed (or
// the writer has failed) and returns the writer's sticky error. FlushAll
// and Close drain before they return; tests drain to count the writer's
// filesystem operations.
func (e *Engine) drainManifests() error {
	w := &e.mw
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.busy {
		w.idle.Wait()
	}
	return w.err
}

// manifestErr returns the writer's sticky error without waiting.
func (e *Engine) manifestErr() error {
	w := &e.mw
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// rootHistoryDepth is how many recent (height → Hstate) pairs an engine
// retains. The shard layer reads them back during post-crash replay so a
// shard whose checkpoint already covers a replayed block can contribute
// its exact historical root to the combined digest instead of its
// current one. A manifest persists the part of them replay can read; a
// replayed height older than this falls back to the shard's current
// root.
const rootHistoryDepth = 512

// rootRing is the root history: the newest rootHistoryDepth (height →
// Hstate) pairs in a fixed ring, oldest first, heights strictly
// increasing. A commit costs O(1): nothing is shifted when the ring is
// full.
type rootRing struct {
	recs  [rootHistoryDepth]RootRecord
	first int // ring index of the oldest record
	n     int
}

// at returns the i-th oldest record.
func (r *rootRing) at(i int) *RootRecord { return &r.recs[(r.first+i)%rootHistoryDepth] }

// record appends a committed (height, root) pair. Replay re-commits
// heights already recorded: entries at or above the new height are
// dropped first, so the history stays strictly increasing and the
// replayed digests (which are deterministic) land in the same slots. A
// full ring drops its oldest entry.
func (r *rootRing) record(height uint64, root types.Hash) {
	for r.n > 0 && r.at(r.n-1).Height >= height {
		r.n--
	}
	if r.n == rootHistoryDepth {
		r.first = (r.first + 1) % rootHistoryDepth
		r.n--
	}
	*r.at(r.n) = RootRecord{Height: height, Root: hexHash(root)}
	r.n++
}

// get returns the root recorded at height, if it is retained.
func (r *rootRing) get(height uint64) (types.Hash, bool) {
	i := sort.Search(r.n, func(i int) bool { return r.at(i).Height >= height })
	if i < r.n && r.at(i).Height == height {
		return types.Hash(r.at(i).Root), true
	}
	return types.Hash{}, false
}

// window copies out the records with lo < height ≤ hi, oldest first; nil
// when there are none.
func (r *rootRing) window(lo, hi uint64) []RootRecord {
	var out []RootRecord
	for i := sort.Search(r.n, func(i int) bool { return r.at(i).Height > lo }); i < r.n && r.at(i).Height <= hi; i++ {
		out = append(out, *r.at(i))
	}
	return out
}

// HistoricalRoot returns the Hstate digest the engine committed at the
// given block height, if the height is still inside the retained root
// history (the last rootHistoryDepth commits, and after a reopen the
// window the manifest persisted). The shard layer uses it during
// post-crash replay: a shard whose checkpoint already covers a replayed
// block contributes this exact historical root to the combined digest,
// so replayed headers match the originally published ones.
func (e *Engine) HistoricalRoot(height uint64) (types.Hash, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rootHistory.get(height)
}
