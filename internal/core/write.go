package core

import (
	"fmt"
	"time"

	"cole/internal/mbtree"
	"cole/internal/merge"
	"cole/internal/obs"
	"cole/internal/run"
	"cole/internal/types"
)

// BeginBlock starts building a block at the given height, which must
// exceed the last committed height. COLE does not support forks/rewind
// (§4.3), so heights are monotone.
func (e *Engine) BeginBlock(height uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inBlock {
		return fmt.Errorf("core: block %d still open", e.height)
	}
	if height <= e.committed && e.committed != 0 || (e.committed == 0 && height == 0) {
		return fmt.Errorf("core: height %d not above committed %d (no fork support)", height, e.committed)
	}
	e.height = height
	e.inBlock = true
	return nil
}

// Put inserts a state update into the current block: the compound key
// ⟨addr, current height⟩ is written into the L0 writing group
// (Algorithm 1 lines 2–3 / Algorithm 5 lines 2–4).
func (e *Engine) Put(addr types.Address, value types.Value) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.inBlock {
		return fmt.Errorf("core: Put outside a block; call BeginBlock first")
	}
	g := e.mem[e.memWriting]
	g.tree.Insert(types.CompoundKey{Addr: addr, Blk: e.height}, value)
	g.filter.Add(addr)
	e.stats.Puts++
	return nil
}

// Update is one pending state write of a batch (alias of types.Update).
type Update = types.Update

// PutBatch applies a block's updates under a single lock acquisition:
// it is the Put loop under one lock. Every update is inserted in order,
// and Insert overwrites an existing compound key in place, so a repeated
// address keeps its first-occurrence position and its last value —
// PutBatch and looped Put build the same tree and yield byte-identical
// digests.
func (e *Engine) PutBatch(updates []Update) error {
	if len(updates) == 0 {
		return nil
	}
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.inBlock {
		return fmt.Errorf("core: PutBatch outside a block; call BeginBlock first")
	}
	g := e.mem[e.memWriting]
	for _, u := range updates {
		g.tree.Insert(types.CompoundKey{Addr: u.Addr, Blk: e.height}, u.Value)
		g.filter.Add(u.Addr)
	}
	// Puts counts submitted updates (what the workload issued), matching
	// the sequential-Put accounting.
	e.stats.Puts += int64(len(updates))
	e.hists.PutBatch.Record(time.Since(start))
	return nil
}

// Commit finalizes the current block: it runs the flush/merge cascade if
// the L0 writing group is full, publishes the new read view, hands the
// manifest of a changed structure to the manifest writer, and returns the
// block's state root digest Hstate. It does not wait for that manifest:
// CheckpointHeight advances, and the merged-away runs are retired, once
// it has landed. A manifest write that failed fails this Commit.
func (e *Engine) Commit() (types.Hash, error) {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.inBlock {
		return types.Hash{}, fmt.Errorf("core: Commit without BeginBlock")
	}
	e.inBlock = false
	if err := e.manifestErr(); err != nil {
		return types.Hash{}, err
	}
	e.committed = e.height

	cascaded := e.mem[e.memWriting].tree.Size() >= e.opts.MemCapacity
	if cascaded {
		var err error
		if e.opts.AsyncMerge {
			err = e.cascadeAsync()
			// Blocks since the previous cascade live in the merging
			// group, whose flush is still in flight: they are the ones a
			// crash would lose.
			e.checkpoint = e.lastCascade
		} else {
			err = e.cascadeSync()
			e.checkpoint = e.committed
		}
		e.lastCascade = e.committed
		if err != nil {
			return types.Hash{}, err
		}
	}
	// The digest is recorded in the root history before the manifest
	// snapshot so that a cascade checkpoint persists its own height's root.
	hl := e.hashListLocked()
	e.rootHistory.record(e.committed, hl.root)
	// Publish after the hash list warmed every L0 hash (the frozen
	// snapshots must be clean for concurrent readers). The fresh view
	// excludes the runs the cascade removed; the writer retires them once
	// a durable manifest no longer names them.
	e.publishLocked(hl)
	if cascaded {
		e.submitManifestLocked()
	}
	d := int64(time.Since(start))
	e.stats.Commits++
	e.stats.CommitNanos += d
	if d > e.stats.MaxCommitNanos {
		e.stats.MaxCommitNanos = d
	}
	e.hists.Commit.Record(time.Duration(d))
	if e.tr != nil {
		e.trace(obs.EvCommit, -1, 0, e.committed, time.Duration(d))
	}
	return hl.root, nil
}

// RootDigest returns the current Hstate without committing.
func (e *Engine) RootDigest() types.Hash {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hashListLocked().root
}

// hashList is root_hash_list (§4) materialised once for the current
// structure: what Commit returns as Hstate and what publishLocked turns
// into the read view, so the two cannot disagree.
type hashList struct {
	// runs is the committed run list in canonical search order.
	runs []*runRef
	// root is Hstate: the hash of the L0 group roots followed by the
	// digest of each entry of runs.
	root types.Hash
}

// hashListLocked assembles root_hash_list in canonical order: the L0
// group roots (writing then merging), then per level the writing-group run
// digests newest-first followed by the merging-group run digests
// newest-first. This order equals the read search order, which is what
// lets provenance verifiers walk proof parts and digests in lockstep.
//
// Its cost is the block's own work — rehashing the L0 nodes the block
// dirtied — plus one field read per run: run digests were fixed when the
// runs were opened. As a side effect every L0 hash is warm afterwards.
func (e *Engine) hashListLocked() hashList {
	n := 0
	for _, lv := range e.levels {
		n += len(lv.groups[0]) + len(lv.groups[1])
	}
	hl := hashList{runs: make([]*runRef, 0, n)}
	digests := make([]types.Hash, 0, len(e.mem)+n)
	digests = append(digests, e.mem[e.memWriting].tree.RootHash())
	if e.opts.AsyncMerge {
		digests = append(digests, e.mem[1-e.memWriting].tree.RootHash())
	}
	e.forEachRunLocked(func(rr *runRef) bool {
		hl.runs = append(hl.runs, rr)
		digests = append(digests, rr.r.Digest())
		return true
	})
	hl.root = types.HashConcat(digests...)
	return hl
}

// ensureLevel extends the level list so that levels[i] exists.
func (e *Engine) ensureLevel(i int) *level {
	for len(e.levels) <= i {
		e.levels = append(e.levels, &level{})
	}
	return e.levels[i]
}

// collectTree snapshots an MB-tree's entries in key order.
func collectTree(t *mbtree.Tree) []types.Entry {
	out := make([]types.Entry, 0, t.Size())
	_ = t.ForEach(func(e types.Entry) error {
		out = append(out, e)
		return nil
	})
	return out
}

// dispatchFunc is how a run-build job reaches the merge pool:
// Scheduler.Run (COLE — the committing goroutine blocks until the job is
// done) or Scheduler.Submit (COLE* — the job runs in the background and a
// later checkpoint joins it).
type dispatchFunc func(job func(), pri merge.Priority, onWait func())

// startJob is the one run-build job: allocate the run id (here, under the
// engine lock, so ids are deterministic), dispatch build to the pool in
// lane pri inside its trace bracket, and return the state commitMerge
// later installs. lvl is the destination level index — 0 marks an L0
// flush — and bytes the entry volume, both only for the trace events.
func (e *Engine) startJob(lvl int32, bytes int64, pri merge.Priority, dispatch dispatchFunc, build func(id uint64) (*run.Run, error)) *mergeState {
	id := e.nextRunID
	e.nextRunID++
	evStart, evEnd := obs.EvMergeStart, obs.EvMergeEnd
	if lvl == 0 {
		evStart, evEnd = obs.EvFlushStart, obs.EvFlushEnd
	}
	ms := &mergeState{done: make(chan struct{})}
	dispatch(func() {
		defer close(ms.done)
		start := time.Now()
		if e.tr != nil {
			e.trace(evStart, lvl, bytes, id, 0)
		}
		ms.newRun, ms.err = build(id)
		ms.elapsed = time.Since(start)
		if e.tr != nil {
			e.trace(evEnd, lvl, bytes, id, ms.elapsed)
		}
	}, pri, e.noteMergeWait)
	return ms
}

// startFlush builds a new L1 run from a snapshot of L0 group g's tree, on
// the pool's flush lane. g must not absorb Puts while the job runs (the
// job only ever reads the tree).
func (e *Engine) startFlush(g *memGroup, dispatch dispatchFunc) *mergeState {
	size := int64(g.tree.Size()) * types.EntrySize
	return e.startJob(0, size, merge.PriorityFlush, dispatch, func(id uint64) (*run.Run, error) {
		entries := collectTree(g.tree)
		return run.Build(e.opts.Dir, id, int64(len(entries)), e.runParams(), run.NewSliceIterator(entries))
	})
}

// startMerge sort-merges runs (a full group of levels[levelIdx]) into a
// run destined for the next level, in lane pri.
func (e *Engine) startMerge(levelIdx int, runs []*run.Run, pri merge.Priority, dispatch dispatchFunc) *mergeState {
	var count int64
	for _, r := range runs {
		count += r.Count()
	}
	lvl := int32(levelIdx + 1)
	return e.startJob(lvl, count*types.EntrySize, pri, dispatch, func(id uint64) (*run.Run, error) {
		return run.Build(e.opts.Dir, id, count, e.runParams(), e.chunked(run.MergeRuns(runs), pri, lvl))
	})
}

// commitMerge joins a flush or merge job and publishes its run into the
// writing group of the destination level (the commit checkpoint of §5;
// for COLE the job has already finished and this only installs it).
func (e *Engine) commitMerge(ms *mergeState, destLevel int) error {
	select {
	case <-ms.done:
	default:
		// Slow node: the interval between start and commit checkpoints was
		// not enough; block until the merge finishes (Algorithm 5 line 9).
		// The blocked time is the commit stall preemption exists to
		// shorten — measured here so `-exp stalls` and `coledb stat` can
		// report it.
		e.mergeWaits.Add(1)
		stallStart := time.Now()
		<-ms.done
		stall := time.Since(stallStart)
		e.stats.StallNanos += int64(stall)
		if e.tr != nil {
			e.trace(obs.EvStall, int32(destLevel), 0, 0, stall)
		}
	}
	// newRun, err and elapsed were written by the job before done closed
	// (happens-before via the channel), so reading them here under mu is
	// safe.
	if ms.err != nil {
		if destLevel == 0 {
			return fmt.Errorf("core: flush L0: %w", ms.err)
		}
		return fmt.Errorf("core: merge into L%d: %w", destLevel+1, ms.err)
	}
	lv := e.ensureLevel(destLevel)
	lv.groups[lv.writing] = append(lv.groups[lv.writing], newRunRef(ms.newRun))
	// destLevel 0 receives L0 flushes; deeper levels receive sort-merges.
	if destLevel == 0 {
		e.stats.FlushBytes += ms.newRun.Count() * types.EntrySize
	} else {
		e.stats.MergeBytes += ms.newRun.Count() * types.EntrySize
		e.stats.MergeNanos += int64(ms.elapsed)
	}
	return nil
}

// commitLevelMerge joins the in-flight merge of levels[i], if any,
// installs its run in the next level, and queues the merged group's runs
// for retirement.
func (e *Engine) commitLevelMerge(i int) error {
	lv := e.levels[i]
	if lv.merge == nil {
		return nil
	}
	if err := e.commitMerge(lv.merge, i+1); err != nil {
		return err
	}
	lv.merge = nil
	e.retiring = append(e.retiring, lv.groups[lv.merging()]...)
	lv.groups[lv.merging()] = nil
	return nil
}

// flushNow flushes the L0 group in slot gi into L1 while the caller
// waits, and installs a fresh group in the slot: the commit-path flush of
// Algorithm 1 and FlushAll's final flushes.
func (e *Engine) flushNow(gi int) error {
	if err := e.commitMerge(e.startFlush(e.mem[gi], e.sched.Run), 0); err != nil {
		return err
	}
	e.mem[gi] = newMemGroup(e.opts)
	e.stats.Flushes++
	return nil
}

// cascadeSync is Algorithm 1: flush L0 into L1, then merge every full
// level into the next, inline. The run builds execute on the shared merge
// pool (blocking until done): one engine sees no difference, but the
// parallel per-shard commits of a sharded store stay within the store's
// worker budget instead of each running a full cascade at once. The whole
// cascade is the commit path, so its merges run in the flush lane,
// unchunked: a commit must never queue behind background maintenance.
func (e *Engine) cascadeSync() error {
	if err := e.flushNow(e.memWriting); err != nil {
		return err
	}
	for i := 0; i < len(e.levels); i++ {
		lv := e.levels[i]
		if len(lv.groups[0]) < e.opts.SizeRatio {
			break
		}
		ms := e.startMerge(i, runsOf(lv.groups[0]), merge.PriorityFlush, e.sched.Run)
		if err := e.commitMerge(ms, i+1); err != nil {
			return err
		}
		e.retiring = append(e.retiring, lv.groups[0]...)
		lv.groups[0] = nil
		e.stats.Merges++
	}
	return nil
}

// cascadeAsync is Algorithm 5: per-level commit checkpoints that join the
// previous merge thread, publish its output run, swap group roles, and
// start the next merge in the background.
func (e *Engine) cascadeAsync() error {
	// Checkpoint at L0 (lines 6–20 with i = 0).
	if e.memMerge != nil {
		if err := e.commitMerge(e.memMerge, 0); err != nil {
			return err
		}
		e.memMerge = nil
	}
	// Replace the merging-slot group before promoting the slot to the
	// writing role. publishLocked shares the merging group's live tree and
	// filter into views (it is frozen), so the object sitting in the slot —
	// whether the group whose flush just committed or the empty group from
	// Open/FlushAll when no merge was pending — may still be pinned by
	// readers and must never start absorbing Puts.
	e.mem[1-e.memWriting] = newMemGroup(e.opts)
	// Switch roles: the full writing group becomes the merging group.
	e.memWriting = 1 - e.memWriting
	mg := e.mem[1-e.memWriting]
	// Warm the hash cache so the flush goroutine only ever reads the tree.
	mg.tree.RootHash()
	e.memMerge = e.startFlush(mg, e.sched.Submit)
	e.stats.Flushes++

	// Level checkpoints.
	for i := 0; i < len(e.levels); i++ {
		lv := e.levels[i]
		if len(lv.groups[lv.writing]) < e.opts.SizeRatio {
			break
		}
		if err := e.commitLevelMerge(i); err != nil {
			return err
		}
		lv.writing = lv.merging()
		e.startLevelMerge(i)
		e.stats.Merges++
	}
	return nil
}

// startLevelMerge hands the merging group of levels[i] to a background
// merge (Algorithm 5's start checkpoint, and its restart after reopen).
// The merge that builds L2 from levels[0] backs up the very next cascade;
// everything deeper is bulk maintenance a commit should never queue
// behind.
func (e *Engine) startLevelMerge(i int) {
	pri := merge.PriorityDeep
	if i == 0 {
		pri = merge.PriorityMerge
	}
	lv := e.levels[i]
	lv.merge = e.startMerge(i, runsOf(lv.groups[lv.merging()]), pri, e.sched.Submit)
}

// MergeQuantum is the preemption quantum, in entries, of background
// level merges on an engine whose L0 holds memCapacity (B) entries: a
// quarter of a flush, at least 1. Between quanta a merge probes the
// scheduler (two atomic loads) for queued higher-priority work — an L0
// flush a commit checkpoint is waiting on — and hands its worker slot
// over. B/4 is the quantum `-exp stalls` measures preemptions at: even
// an L1 merge reaches several checkpoints. Chunking never changes merge
// output, only when a commit can overtake a long merge on a narrow pool.
func MergeQuantum(memCapacity int) int {
	return max(memCapacity/4, 1)
}

// mergeChunk is the engine's preemption quantum: MergeQuantum of its B
// unless a test pinned another.
func (e *Engine) mergeChunk() int {
	if e.fixedMergeChunk > 0 {
		return e.fixedMergeChunk
	}
	return MergeQuantum(e.opts.MemCapacity)
}

// chunked wraps a merge source so the job checkpoints every mergeChunk
// entries and hands its worker slot to queued higher-priority work
// (run.Chunked + Scheduler.Preempt). Flush-lane jobs are never wrapped —
// nothing outranks them, so the probe would be dead weight on the
// commit path. lvl tags the trace events with the merge's destination
// level index.
func (e *Engine) chunked(it run.Iterator, pri merge.Priority, lvl int32) run.Iterator {
	if pri == merge.PriorityFlush {
		return it
	}
	// When traced, every checkpoint is an instant and a preemption records
	// how long the merge sat re-queued — exactly one trace preempt event
	// per counted preemption, the invariant the stalls benchmark
	// cross-checks.
	return run.Chunked(it, e.mergeChunk(), func() {
		if e.tr != nil {
			e.trace(obs.EvMergeCheckpoint, lvl, 0, 0, 0)
		}
		start := time.Now()
		if e.sched.Preempt(pri, nil) {
			e.preemptions.Add(1)
			if e.tr != nil {
				e.trace(obs.EvMergePreempt, lvl, 0, 0, time.Since(start))
			}
		}
	})
}

// FlushAll forces the L0 contents to disk and joins all merge threads,
// committing their outputs: a clean shutdown helper (the paper's crash
// model instead replays blocks above the checkpoint). It is a durability
// barrier: it returns once its manifest has landed, with CheckpointHeight
// at the committed height. The resulting run sizes may be smaller than B,
// which only affects level occupancy, never correctness.
func (e *Engine) FlushAll() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inBlock {
		return fmt.Errorf("core: FlushAll inside an open block")
	}
	if err := e.drainManifests(); err != nil {
		return err
	}
	// Join and commit async threads first so groups are quiescent.
	if e.memMerge != nil {
		if err := e.commitMerge(e.memMerge, 0); err != nil {
			return err
		}
		e.memMerge = nil
		e.mem[1-e.memWriting] = newMemGroup(e.opts)
	}
	for i := range e.levels {
		if err := e.commitLevelMerge(i); err != nil {
			return err
		}
	}
	// Flush any remaining L0 entries (both groups) as a final run.
	for _, gi := range []int{e.memWriting, 1 - e.memWriting} {
		if e.mem[gi].tree.Size() == 0 {
			continue
		}
		if err := e.flushNow(gi); err != nil {
			return err
		}
	}
	e.checkpoint = e.committed
	e.lastCascade = e.committed
	e.publishLocked(e.hashListLocked())
	e.submitManifestLocked()
	return e.drainManifests()
}
