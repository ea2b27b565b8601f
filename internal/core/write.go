package core

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

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
// duplicates of an address collapse to the last write before touching the
// tree (within a block only the final value of an address matters — the
// compound key ⟨addr, height⟩ is the same for every one of them).
//
// Updates are applied in first-occurrence order, NOT sorted: the L0
// MB-tree's shape (and therefore its root hash) depends on insertion
// order, and Insert overwrites an existing compound key in place, so
// first-occurrence order with last-write-wins values reproduces the tree
// a sequential Put loop builds — PutBatch and looped Put yield
// byte-identical digests.
func (e *Engine) PutBatch(updates []Update) error {
	if len(updates) == 0 {
		return nil
	}
	// Ingest pacing: a batch absorbs its share of the current compaction
	// debt in proportion to how much of a block it represents, before
	// taking the lock (the sleep must never block readers or merges).
	e.pace(float64(len(updates)) / float64(e.opts.MemCapacity))
	// The histogram measures the batch's real ingest work (lock + dedup
	// + tree insert); the deliberate pacing sleep above is accounted in
	// PaceNanos, exactly as CommitNanos excludes it.
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.inBlock {
		return fmt.Errorf("core: PutBatch outside a block; call BeginBlock first")
	}
	g := e.mem[e.memWriting]
	if len(updates) == 1 {
		g.tree.Insert(types.CompoundKey{Addr: updates[0].Addr, Blk: e.height}, updates[0].Value)
		g.filter.Add(updates[0].Addr)
		e.stats.Puts++
		e.hists.PutBatch.Record(time.Since(start))
		return nil
	}
	// Dedup into the engine's scratch (the caller's batch is not
	// mutated; the scratch is reused across calls to keep the hot path
	// allocation-free once warm).
	if e.batchIndex == nil {
		e.batchIndex = make(map[types.Address]int, len(updates))
	} else {
		clear(e.batchIndex)
	}
	deduped := e.batchBuf[:0]
	for _, u := range updates {
		if i, ok := e.batchIndex[u.Addr]; ok {
			deduped[i].Value = u.Value
			continue
		}
		e.batchIndex[u.Addr] = len(deduped)
		deduped = append(deduped, u)
	}
	e.batchBuf = deduped
	if e.opts.SortedBatch {
		// Format-versioned fast path: stage the deduped updates as entries,
		// sort by compound key, and bulk-load the L0 tree through its
		// sorted-insert path (one descent per leaf run instead of one per
		// key). Identical to a sequential Insert loop over the same sorted
		// slice — but NOT to first-occurrence order, which is why the
		// manifest records the setting.
		entries := e.entryBuf[:0]
		for _, u := range deduped {
			entries = append(entries, types.Entry{
				Key:   types.CompoundKey{Addr: u.Addr, Blk: e.height},
				Value: u.Value,
			})
			g.filter.Add(u.Addr)
		}
		e.entryBuf = entries
		sort.Slice(entries, func(i, j int) bool { return entries[i].Key.Less(entries[j].Key) })
		g.tree.InsertSorted(entries)
	} else {
		for _, u := range deduped {
			g.tree.Insert(types.CompoundKey{Addr: u.Addr, Blk: e.height}, u.Value)
			g.filter.Add(u.Addr)
		}
	}
	// Puts counts submitted updates (what the workload issued), matching
	// the sequential-Put accounting.
	e.stats.Puts += int64(len(updates))
	e.hists.PutBatch.Record(time.Since(start))
	return nil
}

// Commit finalizes the current block: it runs the flush/merge cascade if
// the L0 writing group is full, persists the manifest when the structure
// changed, publishes the new read view, and returns the block's state
// root digest Hstate.
func (e *Engine) Commit() (types.Hash, error) {
	// Ingest pacing happens before the timed section: the deliberate
	// backpressure sleep is accounted in PaceNanos, not CommitNanos, so
	// MaxCommitNanos keeps measuring real commit work and stalls.
	e.pace(1)
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.inBlock {
		return types.Hash{}, fmt.Errorf("core: Commit without BeginBlock")
	}
	e.inBlock = false
	e.committed = e.height

	var err error
	cascaded := false
	if e.mem[e.memWriting].tree.Size() >= e.opts.MemCapacity {
		cascaded = true
		// This cascade will supersede the previous pipelined commit's
		// manifest: join its I/O first so writes stay ordered and a
		// deferred failure surfaces here instead of being overwritten.
		if err := e.joinCommitIOLocked(); err != nil {
			return types.Hash{}, err
		}
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
	// The digest is computed (and recorded in the root history) before the
	// manifest write so that a cascade checkpoint persists its own height's
	// root: every height at or below the durable checkpoint has its digest
	// in the durable history.
	hl := e.hashListLocked()
	e.recordRootLocked(e.committed, hl.root)
	if cascaded && !e.opts.PipelinedCommit {
		if err := e.writeManifest(); err != nil {
			return types.Hash{}, err
		}
	}
	// Publish after the hash list warmed every L0 hash (the frozen snapshots
	// must be clean for concurrent readers) and after the manifest write
	// (or after its bytes were captured, when pipelined), then retire the
	// runs the cascade removed: the fresh view excludes them, and views
	// still pinning them keep their files alive.
	if cascaded && e.opts.PipelinedCommit {
		// Pipelined: capture the exact manifest bytes under the lock, then
		// persist them — and unlink the retired runs' files strictly after
		// the rename — on a background goroutine, overlapping this block's
		// trailing I/O with the next block's execution and hashing.
		raw, err := e.marshalManifestLocked()
		if err != nil {
			return types.Hash{}, err
		}
		e.publishLocked(hl)
		e.startCommitIOLocked(raw)
	} else {
		e.publishLocked(hl)
		e.retireLocked()
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
func collectTree(g *memGroup) []types.Entry {
	out := make([]types.Entry, 0, g.tree.Size())
	_ = g.tree.ForEach(func(e types.Entry) error {
		out = append(out, e)
		return nil
	})
	return out
}

// cascadeSync is Algorithm 1: flush L0 into L1, then merge every full
// level into the next, inline. The run builds execute on the shared merge
// pool (blocking until done): one engine sees no difference, but the
// parallel per-shard commits of a sharded store stay within the store's
// worker budget instead of each running a full cascade at once.
func (e *Engine) cascadeSync() error {
	g := e.mem[e.memWriting]
	entries := collectTree(g)
	id := e.nextRunID
	e.nextRunID++
	var r *run.Run
	var err error
	// The whole sync cascade is the commit path, so its jobs run in the
	// flush lane: a commit must never queue behind background maintenance.
	e.sched.Run(func() {
		var fs time.Time
		if e.tr != nil {
			fs = time.Now()
			e.trace(obs.EvFlushStart, 0, int64(len(entries))*types.EntrySize, id, 0)
		}
		r, err = run.Build(e.opts.Dir, id, int64(len(entries)), e.opts.runParams(), run.NewSliceIterator(entries))
		if e.tr != nil {
			e.trace(obs.EvFlushEnd, 0, int64(len(entries))*types.EntrySize, id, time.Since(fs))
		}
	}, merge.PriorityFlush, e.noteMergeWait)
	if err != nil {
		return fmt.Errorf("core: flush L0: %w", err)
	}
	fresh, err := newMemGroup(e.opts)
	if err != nil {
		return err
	}
	e.mem[e.memWriting] = fresh
	e.ensureLevel(0).groups[0] = append(e.levels[0].groups[0], newRunRef(r))
	e.stats.Flushes++
	e.stats.FlushBytes += r.Count() * types.EntrySize

	for i := 0; i < len(e.levels); i++ {
		lv := e.levels[i]
		if len(lv.groups[0]) < e.opts.SizeRatio {
			break
		}
		merged, err := e.buildMergedRun(i+1, runsOf(lv.groups[0]))
		if err != nil {
			return err
		}
		e.retiring = append(e.retiring, lv.groups[0]...)
		lv.groups[0] = nil
		e.ensureLevel(i + 1).groups[0] = append(e.levels[i+1].groups[0], newRunRef(merged))
		e.stats.Merges++
		e.stats.MergeBytes += merged.Count() * types.EntrySize
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
	fresh, err := newMemGroup(e.opts)
	if err != nil {
		return err
	}
	e.mem[1-e.memWriting] = fresh
	// Switch roles: the full writing group becomes the merging group.
	e.memWriting = 1 - e.memWriting
	mg := e.mem[1-e.memWriting]
	// Warm the hash cache so the flush goroutine only ever reads the tree.
	mg.tree.RootHash()
	e.memMerge = e.startMemFlush(mg)
	e.stats.Flushes++

	// Level checkpoints.
	for i := 0; i < len(e.levels); i++ {
		lv := e.levels[i]
		if len(lv.groups[lv.writing]) < e.opts.SizeRatio {
			break
		}
		if lv.merge != nil {
			if err := e.commitMerge(lv.merge, i+1); err != nil {
				return err
			}
			lv.merge = nil
			e.retiring = append(e.retiring, lv.groups[lv.merging()]...)
			lv.groups[lv.merging()] = nil
		}
		lv.writing = lv.merging()
		mgRuns := lv.groups[lv.merging()]
		lv.merge = e.startLevelMerge(i, runsOf(mgRuns))
		e.stats.Merges++
	}
	return nil
}

// commitMerge joins a merge thread and publishes its run into the writing
// group of the destination level (the commit checkpoint of §5).
func (e *Engine) commitMerge(ms *mergeState, destLevel int) error {
	select {
	case <-ms.done:
	default:
		// Slow node: the interval between start and commit checkpoints was
		// not enough; block until the merge finishes (Algorithm 5 line 9).
		// The blocked time is the commit stall pacing exists to prevent —
		// measured here so `-exp stalls` and `coledb stat` can report it.
		e.mergeWaits.Add(1)
		stallStart := time.Now()
		<-ms.done
		stall := time.Since(stallStart)
		e.stats.StallNanos += int64(stall)
		if e.tr != nil {
			e.trace(obs.EvStall, int32(destLevel), 0, 0, stall)
		}
	}
	if ms.err != nil {
		return fmt.Errorf("core: background merge failed: %w", ms.err)
	}
	lv := e.ensureLevel(destLevel)
	lv.groups[lv.writing] = append(lv.groups[lv.writing], newRunRef(ms.newRun))
	// destLevel 0 receives L0 flushes; deeper levels receive sort-merges.
	// ms.elapsed was written by the job before done closed (happens-before
	// via the channel), so reading it here under mu is safe.
	if destLevel == 0 {
		e.stats.FlushBytes += ms.newRun.Count() * types.EntrySize
	} else {
		e.stats.MergeBytes += ms.newRun.Count() * types.EntrySize
		e.stats.MergeNanos += int64(ms.elapsed)
	}
	return nil
}

// startMemFlush submits the L0 flush job to the merge pool: it snapshots
// the merging group's tree and builds a new L1 run. The run id is
// assigned here, under the engine lock, so ids are deterministic.
func (e *Engine) startMemFlush(g *memGroup) *mergeState {
	id := e.nextRunID
	e.nextRunID++
	size := int64(g.tree.Size()) * types.EntrySize
	ms := &mergeState{done: make(chan struct{})}
	e.sched.Submit(func() {
		defer close(ms.done)
		var fs time.Time
		if e.tr != nil {
			fs = time.Now()
			e.trace(obs.EvFlushStart, 0, size, id, 0)
		}
		entries := collectTree(g)
		r, err := run.Build(e.opts.Dir, id, int64(len(entries)), e.opts.runParams(), run.NewSliceIterator(entries))
		if e.tr != nil {
			e.trace(obs.EvFlushEnd, 0, size, id, time.Since(fs))
		}
		if err != nil {
			ms.err = err
			return
		}
		ms.newRun = r
	}, merge.PriorityFlush, e.noteMergeWait)
	return ms
}

// levelPriority maps a level merge to its scheduler lane: the merge that
// builds L1+1 from levels[0] backs up the very next cascade, everything
// deeper is bulk maintenance a commit should never queue behind.
func levelPriority(levelIdx int) merge.Priority {
	if levelIdx == 0 {
		return merge.PriorityMerge
	}
	return merge.PriorityDeep
}

// defaultMergeChunk is the preemption quantum when Options.MergeChunk is
// 0: 16384 entries ≈ 1 MiB of merged volume between scheduler probes —
// frequent enough that a queued flush waits microseconds, rare enough
// that the probe (two atomic loads) never shows up in merge bandwidth.
const defaultMergeChunk = 16384

func (e *Engine) chunkQuantum() int {
	if e.opts.MergeChunk < 0 {
		return 0
	}
	if e.opts.MergeChunk == 0 {
		return defaultMergeChunk
	}
	return e.opts.MergeChunk
}

// chunked wraps a merge source so the job checkpoints every quantum
// entries and hands its worker slot to queued higher-priority work
// (run.Chunked + Scheduler.Preempt). Flush-lane jobs are never wrapped —
// nothing outranks them, so the probe would be dead weight on the
// commit path. lvl tags the trace events with the merge's destination
// level index.
func (e *Engine) chunked(it run.Iterator, pri merge.Priority, lvl int32) run.Iterator {
	q := e.chunkQuantum()
	if q <= 0 || pri == merge.PriorityFlush {
		return it
	}
	if e.tr == nil {
		return run.Chunked(it, q, func() {
			if e.sched.Preempt(pri, nil) {
				e.preemptions.Add(1)
			}
		})
	}
	// Traced variant: every checkpoint is an instant, and a preemption
	// records how long the merge sat re-queued — exactly one trace
	// preempt event per counted preemption, the invariant the stalls
	// benchmark cross-checks.
	return run.Chunked(it, q, func() {
		e.trace(obs.EvMergeChunk, lvl, 0, 0, 0)
		start := time.Now()
		if e.sched.Preempt(pri, nil) {
			e.preemptions.Add(1)
			e.trace(obs.EvMergePreempt, lvl, 0, 0, time.Since(start))
		}
	})
}

// startLevelMerge submits the sort-merge of a level's merging group into
// a run destined for the next level.
func (e *Engine) startLevelMerge(levelIdx int, runs []*run.Run) *mergeState {
	id := e.nextRunID
	e.nextRunID++
	var count int64
	for _, r := range runs {
		count += r.Count()
	}
	ms := &mergeState{done: make(chan struct{})}
	pri := levelPriority(levelIdx)
	lvl := int32(levelIdx + 1)
	e.sched.Submit(func() {
		defer close(ms.done)
		start := time.Now()
		defer func() { ms.elapsed = time.Since(start) }()
		if e.tr != nil {
			e.trace(obs.EvMergeStart, lvl, count*types.EntrySize, id, 0)
		}
		r, err := e.buildLevelRun(id, count, runs, pri, lvl)
		if e.tr != nil {
			e.trace(obs.EvMergeEnd, lvl, count*types.EntrySize, id, time.Since(start))
		}
		if err != nil {
			ms.err = err
			return
		}
		ms.newRun = r
	}, pri, e.noteMergeWait)
	return ms
}

// buildMergedRun sort-merges a group of runs synchronously (Algorithm 1
// lines 8–11), on the shared merge pool. lvl is the destination level
// index, used only to tag trace events.
func (e *Engine) buildMergedRun(lvl int, runs []*run.Run) (*run.Run, error) {
	id := e.nextRunID
	e.nextRunID++
	var count int64
	for _, r := range runs {
		count += r.Count()
	}
	var merged *run.Run
	var err error
	// Inline (Algorithm 1) merges block the commit, so they run — and fan
	// their partitions out — in the flush lane, unchunked.
	e.sched.Run(func() {
		start := time.Now()
		if e.tr != nil {
			e.trace(obs.EvMergeStart, int32(lvl), count*types.EntrySize, id, 0)
		}
		merged, err = e.buildLevelRun(id, count, runs, merge.PriorityFlush, int32(lvl))
		e.stats.MergeNanos += int64(time.Since(start))
		if e.tr != nil {
			e.trace(obs.EvMergeEnd, int32(lvl), count*types.EntrySize, id, time.Since(start))
		}
	}, merge.PriorityFlush, e.noteMergeWait)
	if err != nil {
		return nil, fmt.Errorf("core: level merge: %w", err)
	}
	return merged, nil
}

// autoPartitionBytes is the merged volume one key-range span should
// carry before the automatic width adds another (~8 MiB of entry bytes
// per span): below it, the planning probes and per-span setup cost more
// than the parallelism recovers.
const autoPartitionBytes = 8 << 20

// mergeWidth picks how many key-range spans a merge of count entries is
// cut into. An explicit Options.MergePartitions ≥ 1 is used as-is; 0
// sizes by merged volume and caps at the pool's worker budget.
func (e *Engine) mergeWidth(count int64) int {
	if w := e.opts.MergePartitions; w > 0 {
		return w
	}
	w := int(count * types.EntrySize / autoPartitionBytes)
	if workers := e.sched.Workers(); w > workers {
		w = workers
	}
	if w < 1 {
		w = 1
	}
	return w
}

// buildLevelRun builds a level merge's destination run, partitioned by
// key range when the width says so. The caller already holds a
// merge-pool slot (startLevelMerge's job, buildMergedRun's Run), so the
// spans go out via SubmitPartition and the join runs inside Yield: the
// parent's released slot is what feeds its own spans on a narrow pool.
// The partitioned output is byte-identical to the sequential build, so
// the choice never reaches digests or the manifest.
func (e *Engine) buildLevelRun(id uint64, count int64, runs []*run.Run, pri merge.Priority, lvl int32) (*run.Run, error) {
	if width := e.mergeWidth(count); width > 1 {
		spans, err := run.PlanRuns(runs, width, e.opts.PageSize)
		if err != nil {
			return nil, err
		}
		if len(spans) > 1 {
			spawn := func(fn func()) { e.sched.SubmitPartition(fn, pri, e.notePartitionWait) }
			if e.tr != nil {
				// Bracket each span on its own trace lane; the ordinal
				// is assigned in spawn order (the planner's span order).
				var seq atomic.Uint64
				spawn = func(fn func()) {
					ord := seq.Add(1) - 1
					e.sched.SubmitPartition(func() {
						start := time.Now()
						e.trace(obs.EvSpanStart, lvl, 0, ord, 0)
						fn()
						e.trace(obs.EvSpanEnd, lvl, 0, ord, time.Since(start))
					}, pri, e.notePartitionWait)
				}
			}
			par := run.Parallel{
				Spawn: spawn,
				Yield: func(wait func()) { e.sched.Yield(pri, wait, e.notePartitionWait) },
			}
			// Each span holds its own pool slot, so each preempts
			// independently: one queued flush pauses one span, not the
			// whole fan-out.
			return run.BuildPartitioned(e.opts.Dir, id, count, e.opts.runParams(), spans,
				func(sp run.Span) (run.Iterator, error) { return e.chunked(run.MergeRunsRange(runs, sp), pri, lvl), nil }, par)
		}
	}
	return run.Build(e.opts.Dir, id, count, e.opts.runParams(), e.chunked(run.MergeRuns(runs), pri, lvl))
}

// FlushAll forces the L0 contents to disk and joins all merge threads,
// committing their outputs: a clean shutdown helper (the paper's crash
// model instead replays blocks above the checkpoint). The resulting run
// sizes may be smaller than B, which only affects level occupancy, never
// correctness.
func (e *Engine) FlushAll() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inBlock {
		return fmt.Errorf("core: FlushAll inside an open block")
	}
	// Join the pipelined commit I/O before writing another manifest.
	if err := e.joinCommitIOLocked(); err != nil {
		return err
	}
	// Join and commit async threads first so groups are quiescent.
	if e.memMerge != nil {
		if err := e.commitMerge(e.memMerge, 0); err != nil {
			return err
		}
		e.memMerge = nil
		fresh, err := newMemGroup(e.opts)
		if err != nil {
			return err
		}
		e.mem[1-e.memWriting] = fresh
	}
	for i := 0; i < len(e.levels); i++ {
		lv := e.levels[i]
		if lv.merge != nil {
			if err := e.commitMerge(lv.merge, i+1); err != nil {
				return err
			}
			lv.merge = nil
			e.retiring = append(e.retiring, lv.groups[lv.merging()]...)
			lv.groups[lv.merging()] = nil
		}
	}
	// Flush any remaining L0 entries (both groups) as a final run.
	for _, gi := range []int{e.memWriting, 1 - e.memWriting} {
		g := e.mem[gi]
		if g.tree.Size() == 0 {
			continue
		}
		entries := collectTree(g)
		id := e.nextRunID
		e.nextRunID++
		var fs time.Time
		if e.tr != nil {
			fs = time.Now()
			e.trace(obs.EvFlushStart, 0, int64(len(entries))*types.EntrySize, id, 0)
		}
		r, err := run.Build(e.opts.Dir, id, int64(len(entries)), e.opts.runParams(), run.NewSliceIterator(entries))
		if e.tr != nil {
			e.trace(obs.EvFlushEnd, 0, int64(len(entries))*types.EntrySize, id, time.Since(fs))
		}
		if err != nil {
			return err
		}
		lv := e.ensureLevel(0)
		lv.groups[lv.writing] = append(lv.groups[lv.writing], newRunRef(r))
		fresh, err := newMemGroup(e.opts)
		if err != nil {
			return err
		}
		e.mem[gi] = fresh
		e.stats.Flushes++
		e.stats.FlushBytes += r.Count() * types.EntrySize
	}
	e.checkpoint = e.committed
	e.lastCascade = e.committed
	if err := e.writeManifest(); err != nil {
		return err
	}
	e.publishLocked(e.hashListLocked())
	e.retireLocked()
	return nil
}
