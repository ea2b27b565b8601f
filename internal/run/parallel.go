package run

import (
	"fmt"
	"sync"

	"cole/internal/mht"
	"cole/internal/pagefile"
	"cole/internal/pla"
	"cole/internal/types"
)

// Parallel supplies the scheduling hooks of a partitioned build. Both
// funcs are optional: a nil Spawn runs span builds inline (sequentially)
// and a nil Yield blocks the caller directly.
type Parallel struct {
	// Spawn schedules one span build; implementations must run fn exactly
	// once (typically on a merge-pool worker).
	Spawn func(fn func())
	// Yield is called around the join that waits for every spawned span.
	// A caller that itself occupies a merge-pool slot releases it here so
	// its own spans can run on a single-worker pool without deadlock.
	Yield func(wait func())
}

func (p Parallel) spawn(fn func()) {
	if p.Spawn == nil {
		fn()
		return
	}
	p.Spawn(fn)
}

func (p Parallel) yield(wait func()) {
	if p.Yield == nil {
		wait()
		return
	}
	p.Yield(wait)
}

// BuildPartitioned builds a run from a planned set of key-range spans,
// fanning the span builds across the Parallel hooks. openSpan returns
// the sorted entry iterator of one span (its bounded k-way merge). The
// output is byte-identical to Build over the concatenated spans:
//
//   - value file: spans cut on page boundaries, each worker writes its
//     pages at final offsets in a pre-sized shared file;
//   - Merkle file: span writers produce every node their leaf range
//     owns at its final layer offset; the boundary straddlers are
//     stitched bottom-up afterwards;
//   - Bloom filter: per-span filters with the full-count geometry,
//     unioned (bit OR is order-independent and idempotent);
//   - learned index: rebuilt sequentially from the merged keys read
//     back from the shared value file — PLA segmentation depends on
//     every preceding key, so this is the one stage that stays
//     sequential; it reads what was just written (page-cache warm)
//     instead of re-merging the sources.
func BuildPartitioned(dir string, id uint64, count int64, params Params, spans []Span,
	openSpan func(Span) (Iterator, error), par Parallel) (r *Run, err error) {
	params = params.withDefaults()
	if params.Fanout < 2 {
		return nil, fmt.Errorf("run: MHT fanout %d < 2", params.Fanout)
	}
	if count < 1 {
		return nil, fmt.Errorf("run: empty runs are not built (count=%d)", count)
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("run: partitioned build with no spans")
	}
	if len(spans) == 1 {
		it, err := openSpan(spans[0])
		if err != nil {
			return nil, err
		}
		return Build(dir, id, count, params, it)
	}
	var spanned int64
	for _, sp := range spans {
		spanned += sp.Hi - sp.Lo
	}
	if spanned != count {
		return nil, fmt.Errorf("run: spans cover %d entries, expected %d", spanned, count)
	}

	wbufPages := writeBufferPages(count, params)
	valW, err := pagefile.CreateShared(params.FS, valuePath(dir, id), params.PageSize, types.EntrySize, count)
	if err != nil {
		return nil, err
	}
	mrkW, err := mht.CreateShared(params.FS, merklePath(dir, id), count, params.Fanout, wbufPages*params.PageSize)
	if err != nil {
		valW.Abort()
		return nil, err
	}
	defer func() {
		if err != nil {
			valW.Abort()
			mrkW.Abort()
			_ = params.FS.Remove(indexPath(dir, id))
			_ = params.FS.Remove(metaPath(dir, id))
		}
	}()

	results := make([]spanResult, len(spans))
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for i := range spans {
		wg.Add(1)
		i := i
		par.spawn(func() {
			defer wg.Done()
			results[i], errs[i] = buildSpan(valW, mrkW, count, params, wbufPages, spans[i], openSpan)
		})
	}
	par.yield(wg.Wait)

	for i, res := range results {
		if errs[i] != nil {
			return nil, fmt.Errorf("span %d [%d,%d): %w", i, spans[i].Lo, spans[i].Hi, errs[i])
		}
		if i > 0 && !results[i-1].maxKey.Less(res.minKey) {
			return nil, fmt.Errorf("run: span %d starts at %v, not above previous max %v",
				i, res.minKey, results[i-1].maxKey)
		}
	}

	// Sequential index rebuild over the freshly written value file.
	layers, err := buildIndexFromValues(dir, id, count, params, wbufPages, valW)
	if err != nil {
		return nil, err
	}
	if err := valW.Finish(); err != nil {
		return nil, err
	}

	leafSpans := make([][2]int64, len(spans))
	for i, sp := range spans {
		leafSpans[i] = [2]int64{sp.Lo, sp.Hi}
	}
	root, err := mrkW.Stitch(leafSpans)
	if err != nil {
		return nil, err
	}

	whole := spanResult{filter: results[0].filter, minKey: results[0].minKey, maxKey: results[len(results)-1].maxKey}
	for _, res := range results[1:] {
		if err := whole.filter.Union(res.filter); err != nil {
			return nil, err
		}
	}
	if whole.filter.Entries() != uint64(count) {
		return nil, fmt.Errorf("run: unioned filter holds %d entries, expected %d", whole.filter.Entries(), count)
	}
	return finishRun(dir, id, count, params, layers, root, whole)
}

// buildSpan runs the per-entry loop over one span's merged entries,
// writing into its slices of the shared value and Merkle files. The index
// is rebuilt afterwards (see BuildPartitioned), so no key feed.
func buildSpan(valW *pagefile.SharedWriter, mrkW *mht.SharedWriter, count int64, params Params,
	wbufPages int, sp Span, openSpan func(Span) (Iterator, error)) (spanResult, error) {
	seg, err := valW.Segment(sp.Lo, wbufPages)
	if err != nil {
		return spanResult{}, err
	}
	mspan, err := mrkW.Span(sp.Lo, sp.Hi)
	if err != nil {
		return spanResult{}, err
	}
	src, err := openSpan(sp)
	if err != nil {
		return spanResult{}, err
	}
	res, err := writeEntries(src, sp.Hi-sp.Lo, count, params, seg.Append, mspan.Add, nil)
	if err != nil {
		return res, err
	}
	if err := seg.Close(); err != nil {
		return res, err
	}
	return res, mspan.Close()
}

// buildIndexFromValues streams the shared value file's keys (still warm
// in the page cache) through the standard PLA construction — identical,
// by construction, to the index the sequential builder would emit.
func buildIndexFromValues(dir string, id uint64, count int64, params Params,
	wbufPages int, valW *pagefile.SharedWriter) (layers []layerMeta, err error) {
	idxW, err := pagefile.CreateWriterFS(params.FS, indexPath(dir, id), params.PageSize, pla.ModelSize, wbufPages)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			idxW.Abort()
		}
	}()
	ib := newIndexBuilder(idxW, params)
	epsVal := pagefile.Epsilon(params.PageSize, types.EntrySize)
	builder, err := newSegmentBuilder(params.OptimalPLA, epsVal, ib.writeModel)
	if err != nil {
		return nil, err
	}
	reader := valW.Reader(params.MergeReadahead)
	for pos := int64(0); pos < count; pos++ {
		rec, ok, err := reader.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("run: value read-back ended at %d of %d entries", pos, count)
		}
		k, err := types.DecodeCompoundKey(rec[:types.CompoundKeySize])
		if err != nil {
			return nil, err
		}
		if err := builder.Add(k, pos); err != nil {
			return nil, err
		}
	}
	if err := builder.Finish(); err != nil {
		return nil, err
	}
	if layers, err = ib.finishLayers(); err != nil {
		return nil, err
	}
	return layers, idxW.Finish()
}
