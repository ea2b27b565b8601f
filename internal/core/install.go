package core

import (
	"fmt"

	"cole/internal/run"
	"cole/internal/vfs"
)

// This file is the engine's offline install surface: reading the durable
// structural state of an engine directory without opening an Engine (no
// orphan sweep, no background-merge restart, no file mutation at all),
// and bulk-building a fresh engine directory from a sorted entry stream.
// Both are the primitives behind internal/reshard, which rewrites a live
// store to a different shard count by streaming every source shard and
// installing the destination shards directly.

// StoreState is the durable structural state of an engine directory as
// recorded by its manifest.
type StoreState struct {
	// Exists reports whether the directory holds a manifest at all; a
	// fresh or never-cascaded engine has none, and every other field is
	// zero.
	Exists bool
	// Height is the block height of the cascade that wrote the manifest.
	Height uint64
	// Replay is the recovery point — and therefore the exact horizon of
	// the durable data: every committed run holds only entries with block
	// heights ≤ Replay, and blocks above it must be re-executed after
	// reopening. An offline rewrite of the directory preserves precisely
	// the state a reopen would serve by copying data at this horizon.
	Replay uint64
	// Async, SizeRatio, and Fanout are the creation parameters pinned by
	// the manifest; a reopen must match them.
	Async     bool
	SizeRatio int
	Fanout    int
	// RunIDs lists every committed run (all levels, both groups).
	RunIDs []uint64
	// NextRunID is the engine's run-id allocator watermark.
	NextRunID uint64
}

// ReadStoreState loads an engine directory's manifest from fsys (nil = the
// real filesystem) without opening the engine, through the same reader
// and checks as Open: a damaged manifest is a *types.ErrCorrupt. A
// directory with no manifest (a fresh or never-cascaded engine) yields a
// zero state with no runs, which is a valid empty source.
func ReadStoreState(fsys vfs.FS, dir string) (*StoreState, error) {
	m, err := readManifest(vfs.OrOS(fsys), dir)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return &StoreState{}, nil
	}
	return &StoreState{
		Exists:    true,
		Height:    m.Height,
		Replay:    m.Replay,
		Async:     m.Async,
		SizeRatio: m.SizeRatio,
		Fanout:    m.Fanout,
		RunIDs:    m.runIDs(),
		NextRunID: m.NextRunID,
	}, nil
}

// bulkLevel places a bulk-built run of `count` entries at the on-disk
// level whose natural run size covers it: L1 runs hold one flushed L0
// group (B entries) and each deeper level multiplies by the size ratio T,
// so the returned index i (0 = L1) is the smallest with B·T^i ≥ count.
// An undersized run at a deep level only affects level occupancy, never
// correctness (same argument as FlushAll's small final runs).
func bulkLevel(count int64, memCap, ratio int) int {
	c := int64(memCap)
	idx := 0
	for c < count {
		c *= int64(ratio)
		idx++
	}
	return idx
}

// BuildFunc builds the single bottom-level run of a bulk install at the
// given directory/id/params and returns it opened.
type BuildFunc func(dir string, id uint64, params run.Params) (*run.Run, error)

// InstallBulkFrom builds a complete engine directory around one
// bottom-level run (value + learned-index + Merkle + Bloom files, exactly
// as a level merge would write them) and a manifest recording it at
// height `height` with an empty replay window (Replay = Height — the
// installed state is fully durable). The run construction is the
// caller's: reshard builds it with run.Build from the destination's
// share of one routed merge of the source runs. The build must produce
// exactly count entries; a zero count installs a valid empty engine
// without calling build. The directory must not already hold an engine.
//
// The install starts a fresh root-history epoch: the manifest carries no
// historical roots, because digests recorded under a different partition
// count do not combine into the new store's headers.
func InstallBulkFrom(opts Options, height uint64, count int64, build BuildFunc) error {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return err
	}
	if count < 0 {
		return fmt.Errorf("core: negative entry count %d", count)
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return err
	}
	if _, err := opts.FS.Stat(manifestPath(opts.Dir)); err == nil {
		return fmt.Errorf("core: %s already holds an engine", opts.Dir)
	}
	m := manifest{
		Height:     height,
		Replay:     height,
		NextRunID:  0,
		MemWriting: 0,
		Async:      opts.AsyncMerge,
		SizeRatio:  opts.SizeRatio,
		Fanout:     opts.Fanout,
	}
	if count > 0 {
		r, err := build(opts.Dir, 0, opts.runParams())
		if err != nil {
			return fmt.Errorf("core: bulk run build: %w", err)
		}
		if r.Count() != count {
			_ = r.Close()
			return fmt.Errorf("core: bulk run holds %d entries, expected %d", r.Count(), count)
		}
		if err := r.Close(); err != nil {
			return err
		}
		m.NextRunID = 1
		li := bulkLevel(count, opts.MemCapacity, opts.SizeRatio)
		for i := 0; i <= li; i++ {
			ls := levelState{Groups: [2][]uint64{{}, {}}}
			if i == li {
				ls.Groups[0] = []uint64{0}
			}
			m.Levels = append(m.Levels, ls)
		}
	}
	// A bulk install's manifest is its commit point (reshard renames the
	// whole tree into place right after this).
	_, err := writeManifestFile(opts.FS, opts.Dir, &m)
	return err
}

// Entries streams every live entry of the pinned view — the frozen L0
// snapshots plus every committed run — in globally sorted compound-key
// order, k-way merged. The iterator is valid until the snapshot is
// Released (the pin keeps retired run files alive while the export is in
// flight), so a consistent full export can run concurrently with commits
// and merges. Check Err after exhaustion for run-file read failures.
func (s *Snapshot) Entries() *run.MergeIterator {
	var its []run.Iterator
	for _, m := range s.v.mems {
		its = append(its, run.NewSliceIterator(collectTree(m.tree)))
	}
	for _, rr := range s.v.runs {
		its = append(its, rr.r.Iter())
	}
	return run.Merge(its...)
}

// EntryCount returns the number of entries Entries will yield: the sum
// of the pinned L0 snapshot sizes and the committed run counts.
func (s *Snapshot) EntryCount() int64 {
	var n int64
	for _, m := range s.v.mems {
		n += int64(m.tree.Size())
	}
	for _, rr := range s.v.runs {
		n += rr.r.Count()
	}
	return n
}
