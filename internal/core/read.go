package core

import (
	"time"

	"cole/internal/bloom"
	"cole/internal/types"
)

// forEachRunLocked enumerates the committed runs in canonical search
// order (Algorithm 6): per level the writing-group runs newest-first
// followed by the merging-group runs newest-first. This is also the
// root_hash_list order. Caller holds e.mu; the read path instead walks
// the same ordering frozen inside a published view.
func (e *Engine) forEachRunLocked(fn func(*runRef) bool) {
	for _, lv := range e.levels {
		for _, g := range [2]int{lv.writing, lv.merging()} {
			runs := lv.groups[g]
			for i := len(runs) - 1; i >= 0; i-- {
				if !fn(runs[i]) {
					return
				}
			}
			if !e.opts.AsyncMerge {
				break
			}
		}
	}
}

// Get returns the latest value of addr as of the last committed block,
// searching levels newest to oldest and stopping at the first hit
// (Algorithm 6). Lock-free: it runs against the published read view,
// concurrently with commits and merges.
func (e *Engine) Get(addr types.Address) (types.Value, bool, error) {
	v := e.acquireView()
	defer v.release()
	hit, ok, err := e.lookup(v, addr, types.MaxBlock)
	return hit.Value, ok, err
}

// GetAt returns the value of addr active at block height blk (the newest
// version with write height ≤ blk) along with that write height.
func (e *Engine) GetAt(addr types.Address, blk uint64) (types.Value, uint64, bool, error) {
	v := e.acquireView()
	defer v.release()
	hit, ok, err := e.lookup(v, addr, blk)
	return hit.Value, hit.Blk, ok, err
}

// ReadResult is one point-lookup outcome of a batched read.
type ReadResult struct {
	Value types.Value
	// Blk is the height the returned value was written at.
	Blk   uint64
	Found bool
}

// GetBatch resolves many point lookups against one pinned view: all
// results are consistent with the same committed state, and the view is
// acquired once instead of once per address.
func (e *Engine) GetBatch(addrs []types.Address) ([]ReadResult, error) {
	v := e.acquireView()
	defer v.release()
	return e.getBatchInView(v, addrs)
}

func (e *Engine) getBatchInView(v *view, addrs []types.Address) ([]ReadResult, error) {
	// The batch histogram records whole batches: one sample per call,
	// not per address.
	start := time.Now()
	e.gets.Add(int64(len(addrs)))
	out := make([]ReadResult, len(addrs))
	var skips int64
	defer func() { e.bloomSkips.Add(skips) }()
	for i, addr := range addrs {
		hit, ok, skipped, err := searchView(v, addr, types.MaxBlock)
		skips += skipped
		if err != nil {
			return nil, e.noteCorrupt(err)
		}
		out[i] = ReadResult{Value: hit.Value, Blk: hit.Blk, Found: ok}
	}
	e.hists.GetBatch.Record(time.Since(start))
	return out, nil
}

type versionHit struct {
	Value types.Value
	Blk   uint64
}

// lookup is one timed point lookup over a published view, the one that
// Engine.Get/GetAt and Snapshot.Get/GetAt share: it counts the lookup in
// Stats.Gets, the runs its Bloom probes skipped in Stats.BloomSkips (one
// add), a corruption error in Stats.CorruptReads, and its latency in
// OpHists.Get. A miss or an error returns the zero hit.
func (e *Engine) lookup(v *view, addr types.Address, blk uint64) (versionHit, bool, error) {
	start := time.Now()
	e.gets.Add(1)
	hit, ok, skips, err := searchView(v, addr, blk)
	if skips > 0 {
		e.bloomSkips.Add(skips)
	}
	if err != nil {
		err = e.noteCorrupt(err)
	}
	e.hists.Get.Record(time.Since(start))
	return hit, ok, err
}

// searchView is the zero-lock, zero-allocation point lookup (Algorithm 6)
// over one published view: L0 snapshots first (filter-gated tree
// predecessor), then every run newest-to-oldest, probing each run's Bloom
// filter before descending its learned index — a filter miss skips the
// run without any page read and is counted in skips. The address is
// hashed once per kind of filter: one 64-bit mix for the L0 groups, one
// SHA-256 for the runs.
func searchView(v *view, addr types.Address, blk uint64) (hit versionHit, ok bool, skips int64, err error) {
	key := types.CompoundKey{Addr: addr, Blk: blk}
	mix := bloom.MixProbe(addr)
	for _, m := range v.mems {
		if !m.filter.MayContainProbe(mix) {
			continue
		}
		if ent, ok := m.tree.Predecessor(key); ok && ent.Key.Addr == addr {
			return versionHit{Value: ent.Value, Blk: ent.Key.Blk}, true, skips, nil
		}
	}
	probe := bloom.NewProbe(addr)
	for _, rr := range v.runs {
		if !rr.r.MayContainProbe(probe) {
			skips++
			continue
		}
		ent, _, ok, err := rr.r.SearchAt(addr, blk)
		if err != nil {
			return versionHit{}, false, skips, err
		}
		if ok {
			return versionHit{Value: ent.Value, Blk: ent.Key.Blk}, true, skips, nil
		}
	}
	return versionHit{}, false, skips, nil
}
