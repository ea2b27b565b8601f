package run

import (
	"fmt"
	"sync"

	"cole/internal/bloom"
	"cole/internal/mht"
	"cole/internal/pagefile"
	"cole/internal/pla"
	"cole/internal/types"
)

// Parallel supplies the scheduling hooks of a multi-span build. Both
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

// Build streams a sorted iterator into a new run: BuildSpans with the one
// span [0, count). count must equal the number of entries src yields.
func Build(dir string, id uint64, count int64, params Params, src Iterator) (*Run, error) {
	return BuildSpans(dir, id, count, params, []Span{{Lo: 0, Hi: count}},
		func(Span) (Iterator, error) { return src, nil }, Parallel{})
}

// BuildSpans builds a run from a planned set of key-range spans (Plan),
// fanning the span builds across the Parallel hooks. openSpan returns
// the sorted entry iterator of one span (its bounded k-way merge). The
// files are the same for every planning of the same entries:
//
//   - value file: spans cut on page boundaries, each writes its pages at
//     final offsets in a pre-sized shared file;
//   - Merkle file: span writers produce every node their leaf range
//     owns at its final layer offset; the boundary straddlers are
//     stitched bottom-up afterwards;
//   - Bloom filter: per-span filters with the full-count geometry,
//     unioned (bit OR is order-independent and idempotent);
//   - learned index: PLA segmentation depends on every preceding key, so
//     it is built in one sequential pass over the keys — fed inline by
//     the one span of a sequential build, read back from the value file
//     (page-cache warm) once every span of a wider build has landed.
func BuildSpans(dir string, id uint64, count int64, params Params, spans []Span,
	openSpan func(Span) (Iterator, error), par Parallel) (r *Run, err error) {
	params = params.withDefaults()
	if params.Fanout < 2 {
		return nil, fmt.Errorf("run: MHT fanout %d < 2", params.Fanout)
	}
	if count < 1 {
		return nil, fmt.Errorf("run: empty runs are not built (count=%d)", count)
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("run: build with no spans")
	}
	var spanned int64
	for _, sp := range spans {
		spanned += sp.Hi - sp.Lo
	}
	if spanned != count {
		return nil, fmt.Errorf("run: spans cover %d entries, expected %d", spanned, count)
	}

	wbufPages := writeBufferPages(count, params)
	valF, err := pagefile.CreateShared(params.FS, valuePath(dir, id), params.PageSize, types.EntrySize, count)
	if err != nil {
		return nil, err
	}
	idxF, err := pagefile.CreateShared(params.FS, indexPath(dir, id), params.PageSize, pla.ModelSize, 0)
	if err != nil {
		valF.Abort()
		return nil, err
	}
	mrkF, err := mht.CreateShared(params.FS, merklePath(dir, id), count, params.Fanout, wbufPages*params.PageSize)
	if err != nil {
		valF.Abort()
		idxF.Abort()
		return nil, err
	}
	defer func() {
		if err != nil {
			valF.Abort()
			idxF.Abort()
			mrkF.Abort()
			_ = params.FS.Remove(metaPath(dir, id))
		}
	}()

	// Bottom model layer: learn over (key, value-file position). The index
	// builder collects each emitted model's (kmin, index-file position) to
	// drive the upper layers — O(#models) memory, a tiny fraction of the
	// data.
	idxW, err := idxF.Segment(0, wbufPages)
	if err != nil {
		return nil, err
	}
	ib := newIndexBuilder(idxW, params)
	keys, err := pla.NewBuilder(pagefile.Epsilon(params.PageSize, types.EntrySize), ib.writeModel)
	if err != nil {
		return nil, err
	}
	// One span is the sequential build: it runs on the caller's goroutine
	// and feeds the PLA inline, so a flush never reads its keys back.
	var inline *pla.Builder
	if len(spans) == 1 {
		inline, par = keys, Parallel{}
	}

	results := make([]spanResult, len(spans))
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for i := range spans {
		wg.Add(1)
		par.spawn(func() {
			defer wg.Done()
			results[i], errs[i] = buildSpan(valF, mrkF, count, params, wbufPages, spans[i], openSpan, inline)
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

	if inline == nil {
		if err := readKeys(valF, count, keys); err != nil {
			return nil, err
		}
	}
	if err := keys.Finish(); err != nil {
		return nil, err
	}
	layers, err := ib.finishLayers()
	if err != nil {
		return nil, err
	}
	if err := idxW.Finish(); err != nil {
		return nil, err
	}
	if err := idxF.Finish(); err != nil {
		return nil, err
	}
	if err := valF.Finish(); err != nil {
		return nil, err
	}

	leafSpans := make([][2]int64, len(spans))
	for i, sp := range spans {
		leafSpans[i] = [2]int64{sp.Lo, sp.Hi}
	}
	root, err := mrkF.Stitch(leafSpans)
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
// writing into its slices of the shared value and Merkle files; keys,
// when non-nil, is the inline PLA feed.
func buildSpan(valF *pagefile.SharedWriter, mrkF *mht.SharedWriter, count int64, params Params,
	wbufPages int, sp Span, openSpan func(Span) (Iterator, error), keys *pla.Builder) (spanResult, error) {
	seg, err := valF.Segment(sp.Lo, wbufPages)
	if err != nil {
		return spanResult{}, err
	}
	mspan, err := mrkF.Span(sp.Lo, sp.Hi)
	if err != nil {
		return spanResult{}, err
	}
	src, err := openSpan(sp)
	if err != nil {
		return spanResult{}, err
	}
	res, err := writeEntries(src, sp.Hi-sp.Lo, count, params, seg.Append, mspan.Add, keys)
	if err != nil {
		return res, err
	}
	if err := seg.Finish(); err != nil {
		return res, err
	}
	return res, mspan.Close()
}

// readKeys feeds every key of the written value file, read back in
// position order, to the bottom PLA layer.
func readKeys(valF *pagefile.SharedWriter, count int64, keys *pla.Builder) error {
	reader := valF.Reader(pagefile.DefaultReadaheadPages)
	for pos := int64(0); pos < count; pos++ {
		rec, ok, err := reader.Next()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("run: value read-back ended at %d of %d entries", pos, count)
		}
		k, err := types.DecodeCompoundKey(rec[:types.CompoundKeySize])
		if err != nil {
			return err
		}
		if err := keys.Add(k, pos); err != nil {
			return err
		}
	}
	return nil
}

// writeBufferPages caps the coalescing buffers at the value file's own
// page count: a small run (an L0 flush, a shallow level) should not pay a
// ~1 MiB allocation per file to save syscalls it will never issue. The
// index and Merkle files are never larger than the value file.
func writeBufferPages(count int64, params Params) int {
	perPage := int64(pagefile.PerPage(params.PageSize, types.EntrySize))
	if vp := (count + perPage - 1) / perPage; vp < pagefile.DefaultWriteBufferPages {
		return int(vp)
	}
	return pagefile.DefaultWriteBufferPages
}

// spanResult is what one pass of writeEntries hands its caller: the
// span's Bloom contribution and key bounds.
type spanResult struct {
	filter *bloom.Filter
	minKey types.CompoundKey
	maxKey types.CompoundKey
}

// writeEntries is the per-entry loop of every run build, one call per
// span: encode the entry and append it to the value file, take its Merkle
// leaf hash from the source when it can replay precomputed ones (a run's
// .mrk file, a reshard spool, or a merge of such sources — a stored leaf
// hash IS types.HashEntry of its entry) and compute it otherwise (L0
// flushes arrive as plain slices), add the leaf, and insert the address
// into a Bloom filter with the full run's geometry. keys, when non-nil,
// receives every key with its position in the span (the inline PLA feed).
//
// src must yield exactly want entries. A source that died mid-stream is
// reported by its own error, not as the count mismatch it also causes.
func writeEntries(src Iterator, want, count int64, params Params,
	appendValue func([]byte) error, addLeaf func(types.Hash) error,
	keys *pla.Builder) (res spanResult, err error) {
	// Every span's filter gets the full run's geometry so the union of the
	// spans marshals byte-identically to one sequential pass.
	res.filter = bloom.New(int(count), params.BloomFP)
	var hashSrc HashedIterator
	if h, ok := src.(HashedIterator); ok && h.Hashed() {
		hashSrc = h
	}
	var seen int64
	entryBuf := make([]byte, types.EntrySize)
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		if seen >= want {
			return res, fmt.Errorf("run: iterator yielded more than %d entries", want)
		}
		// Consecutive versions of one address are adjacent in compound-key
		// order; the filter insert is idempotent, so only the first needs
		// the SHA-256 base hashes. A span whose first entries continue the
		// previous span's address re-Adds it: both paths count one entry,
		// so the union stays byte-identical.
		sameAddr := seen > 0 && e.Key.Addr == res.maxKey.Addr
		if seen == 0 {
			res.minKey = e.Key
		}
		res.maxKey = e.Key
		types.EncodeEntry(entryBuf, e)
		if err := appendValue(entryBuf); err != nil {
			return res, err
		}
		if keys != nil {
			if err := keys.Add(e.Key, seen); err != nil {
				return res, err
			}
		}
		var leaf types.Hash
		if hashSrc != nil {
			if leaf, err = hashSrc.LeafHash(); err != nil {
				return res, err
			}
		} else {
			leaf = types.HashEntry(e)
		}
		if err := addLeaf(leaf); err != nil {
			return res, err
		}
		if sameAddr {
			res.filter.AddRepeat()
		} else {
			res.filter.Add(e.Key.Addr)
		}
		seen++
	}
	if err := sourceErr(src); err != nil {
		return res, err
	}
	if seen != want {
		return res, fmt.Errorf("run: iterator yielded %d entries, expected %d", seen, want)
	}
	return res, nil
}

// finishRun writes the metadata file — the run's commit point — and opens
// the finished run. res carries the whole run's filter and key bounds.
func finishRun(dir string, id uint64, count int64, params Params, layers []layerMeta, root types.Hash, res spanResult) (*Run, error) {
	meta := runMeta{
		Count:  count,
		Fanout: params.Fanout,
		Layers: layers,
		Root:   root,
		Bloom:  res.filter.Marshal(),
		MinKey: res.minKey,
		MaxKey: res.maxKey,
		PageSz: params.PageSize,
	}
	if err := writeMeta(params.FS, metaPath(dir, id), meta); err != nil {
		return nil, err
	}
	return Open(dir, id, params)
}

// indexBuilder accumulates the bottom model layer of a learned index and
// builds the page-aligned upper layers over it (Algorithm 3's recursion).
type indexBuilder struct {
	idxW          *pagefile.Writer
	params        Params
	kmins         []types.CompoundKey
	modelBuf      []byte
	modelsPerPage int
}

func newIndexBuilder(idxW *pagefile.Writer, params Params) *indexBuilder {
	return &indexBuilder{
		idxW:          idxW,
		params:        params,
		modelBuf:      make([]byte, pla.ModelSize),
		modelsPerPage: pagefile.PerPage(params.PageSize, pla.ModelSize),
	}
}

// writeModel is the emit hook of the bottom-layer PLA construction: it
// appends the model to the index file and records its kmin for the
// upper layers.
func (b *indexBuilder) writeModel(m pla.Model) error {
	m.Encode(b.modelBuf)
	b.kmins = append(b.kmins, m.KMin)
	return b.idxW.Append(b.modelBuf)
}

// finishLayers pads out the bottom layer and recurses upward until a
// layer fits in one page. Model positions are global index-file record
// slots (page · modelsPerPage + slot), so predictions divide directly
// into page numbers. The caller still owns idxW.Finish.
func (b *indexBuilder) finishLayers() ([]layerMeta, error) {
	epsIdx := pagefile.Epsilon(b.params.PageSize, pla.ModelSize)
	var layers []layerMeta
	layerStartPage := int64(0)
	layerModels := int64(len(b.kmins))
	for {
		pages := (layerModels + int64(b.modelsPerPage) - 1) / int64(b.modelsPerPage)
		layers = append(layers, layerMeta{StartPage: layerStartPage, Pages: pages, Models: layerModels})
		if err := b.idxW.Pad(); err != nil {
			return nil, err
		}
		if pages <= 1 {
			break
		}
		nextStart := layerStartPage + pages
		prev := b.kmins
		b.kmins = b.kmins[:0:0]
		ub, err := pla.NewBuilder(epsIdx, b.writeModel)
		if err != nil {
			return nil, err
		}
		for j, k := range prev {
			// Global record slot of lower-layer model j.
			pos := (layerStartPage+int64(j)/int64(b.modelsPerPage))*int64(b.modelsPerPage) + int64(j)%int64(b.modelsPerPage)
			if err := ub.Add(k, pos); err != nil {
				return nil, err
			}
		}
		if err := ub.Finish(); err != nil {
			return nil, err
		}
		layerStartPage = nextStart
		layerModels = int64(len(b.kmins))
	}
	return layers, nil
}
