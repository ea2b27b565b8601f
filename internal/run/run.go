// Package run implements COLE's on-disk sorted runs (§3.2, §4).
//
// A run is an immutable triple of files plus metadata:
//
//   - value file: compound key-value pairs sorted by key (60-byte records,
//     page-padded);
//   - index file: the disk-optimized learned index — layers of ε-bounded
//     models built bottom-up (Algorithm 3), each layer page-aligned so the
//     top layer is exactly the last page. Open decodes it once and keeps
//     every layer resident (it is a small fraction of the Bloom filter's
//     size), so a search reads no index page;
//   - Merkle file: the m-ary complete MHT over the value entries
//     (Algorithm 4), sharing positions with the value file;
//   - metadata: entry count, layer geometry, MHT root, and the serialized
//     address Bloom filter. The run digest H(mht_root ‖ bloom_digest)
//     participates in root_hash_list, authenticating both data and filter.
//
// All three files are written in a single streaming pass over a sorted
// entry iterator (the L0 flush or a level sort-merge), then never modified:
// "the index file remains valid from its construction until the next level
// merge" (§4.1).
package run

import (
	"encoding/binary"
	"fmt"
	"path/filepath"

	"cole/internal/bloom"
	"cole/internal/mht"
	"cole/internal/pagefile"
	"cole/internal/pla"
	"cole/internal/types"
	"cole/internal/vfs"
)

// Iterator yields entries in strictly increasing key order.
type Iterator interface {
	// Next returns the next entry; ok is false when exhausted.
	Next() (e types.Entry, ok bool)
}

// HashedIterator is an Iterator that can also supply each entry's Merkle
// leaf hash h(K‖value) from a precomputed source (a run's .mrk file, a
// reshard spool). Build uses it to skip re-hashing every entry during
// level merges and bulk installs: the leaf hashes a source run stores
// are by construction exactly the digests the destination's MHT needs.
type HashedIterator interface {
	Iterator
	// Hashed reports whether LeafHash is available for every entry this
	// iterator yields (a merge of mixed sources is not).
	Hashed() bool
	// LeafHash returns the leaf hash of the entry most recently returned
	// by Next. Valid only until the next call to Next.
	LeafHash() (types.Hash, error)
}

// SliceIterator adapts a sorted entry slice.
type SliceIterator struct {
	entries []types.Entry
	i       int
}

// NewSliceIterator wraps a sorted slice.
func NewSliceIterator(entries []types.Entry) *SliceIterator {
	return &SliceIterator{entries: entries}
}

// Next implements Iterator.
func (s *SliceIterator) Next() (types.Entry, bool) {
	if s.i >= len(s.entries) {
		return types.Entry{}, false
	}
	e := s.entries[s.i]
	s.i++
	return e, true
}

// Params configures run construction and opening.
type Params struct {
	PageSize int     // disk page size (pagefile.DefaultPageSize if 0)
	Fanout   int     // MHT fanout m (must be ≥ 2)
	BloomFP  float64 // bloom false-positive target (0.01 if 0)
	// Cache is the page cache point reads of the value file go through: a
	// store hands every run of every engine its one cache. nil gives the
	// run a private one of pagefile.DefaultCachePages pages, which is what
	// standalone openers (fsck, reshard, probes) want.
	Cache *pagefile.Cache
	// MergeReadahead is the window, in pages, that streaming run readers
	// (Iter: level merges, exports, reshard sources) fetch per syscall,
	// bypassing the point-read page cache. Default 256 (~1 MiB at 4 KiB
	// pages).
	MergeReadahead int
	// WriteBufferPages is how many pages run builders coalesce per write
	// syscall. Default 256 (~1 MiB at 4 KiB pages). Any value produces
	// byte-identical files.
	WriteBufferPages int
	// OptimalPLA selects the exact convex-hull segment construction
	// (pla.OptimalBuilder) instead of the default greedy cone: fewer
	// models per run at a higher build cost. Both produce identical
	// on-disk formats, so the flag only matters at build time.
	OptimalPLA bool
	// VerifyReads makes every point lookup check the returned entry
	// against its stored Merkle leaf hash, turning silent value-page
	// bit rot into a typed ErrCorrupt at the cost of one hash read and
	// one SHA-256 per hit. Off by default.
	VerifyReads bool
	// FS is the filesystem the run's files live on (vfs.OS when nil).
	FS vfs.FS
}

// segmentBuilder abstracts the two PLA constructions.
type segmentBuilder interface {
	Add(k types.CompoundKey, pos int64) error
	Finish() error
}

func newSegmentBuilder(optimal bool, eps int, emit func(pla.Model) error) (segmentBuilder, error) {
	if optimal {
		return pla.NewOptimalBuilder(eps, emit)
	}
	return pla.NewBuilder(eps, emit)
}

func (p Params) withDefaults() Params {
	if p.PageSize == 0 {
		p.PageSize = pagefile.DefaultPageSize
	}
	if p.BloomFP == 0 {
		p.BloomFP = 0.01
	}
	if p.MergeReadahead == 0 {
		p.MergeReadahead = pagefile.DefaultReadaheadPages
	}
	if p.WriteBufferPages == 0 {
		p.WriteBufferPages = pagefile.DefaultWriteBufferPages
	}
	p.FS = vfs.OrOS(p.FS)
	return p
}

// layerMeta records the page-aligned placement of one model layer.
type layerMeta struct {
	StartPage int64 // first page of the layer in the index file
	Pages     int64 // pages occupied
	Models    int64 // model records in the layer
}

// Run is an open, immutable sorted run.
type Run struct {
	ID     uint64
	dir    string
	params Params

	count  int64
	layers []layerMeta
	// models is the learned index, decoded from the .idx file by Open:
	// models[l] is layer l (0 = the bottom layer, over value positions).
	models  [][]pla.Model
	mhtRoot types.Hash
	// filter wraps the Bloom bytes of the .met image Open read (no copy,
	// read-only). The run is immutable, so both digests below are
	// computed once, in Open, and every later read is a field load.
	filter      *bloom.Filter
	bloomDigest types.Hash
	digest      types.Hash
	minKey      types.CompoundKey
	maxKey      types.CompoundKey

	values *pagefile.File
	merkle *mht.File
}

func baseName(id uint64) string { return fmt.Sprintf("run-%016x", id) }

func valuePath(dir string, id uint64) string  { return filepath.Join(dir, baseName(id)+".val") }
func indexPath(dir string, id uint64) string  { return filepath.Join(dir, baseName(id)+".idx") }
func merklePath(dir string, id uint64) string { return filepath.Join(dir, baseName(id)+".mrk") }
func metaPath(dir string, id uint64) string   { return filepath.Join(dir, baseName(id)+".met") }

// Files returns the four file names a run with the given id occupies
// (used by the engine's orphan cleanup).
func Files(id uint64) []string {
	return []string{
		baseName(id) + ".val",
		baseName(id) + ".idx",
		baseName(id) + ".mrk",
		baseName(id) + ".met",
	}
}

// Build streams a sorted iterator into a new run. count must equal the
// number of entries the iterator yields. It is the one-span case of the
// per-entry loop (writeEntries) over ordinary append-only writers, with
// the bottom PLA layer fed inline so a flush never reads its keys back.
func Build(dir string, id uint64, count int64, params Params, src Iterator) (r *Run, err error) {
	params = params.withDefaults()
	if params.Fanout < 2 {
		return nil, fmt.Errorf("run: MHT fanout %d < 2", params.Fanout)
	}
	if count < 1 {
		return nil, fmt.Errorf("run: empty runs are not built (count=%d)", count)
	}

	wbufPages := writeBufferPages(count, params)
	valW, err := pagefile.CreateWriterFS(params.FS, valuePath(dir, id), params.PageSize, types.EntrySize, wbufPages)
	if err != nil {
		return nil, err
	}
	idxW, err := pagefile.CreateWriterFS(params.FS, indexPath(dir, id), params.PageSize, pla.ModelSize, wbufPages)
	if err != nil {
		valW.Abort()
		return nil, err
	}
	mrkW, err := mht.CreateWriterFS(params.FS, merklePath(dir, id), count, params.Fanout, wbufPages*params.PageSize)
	if err != nil {
		valW.Abort()
		idxW.Abort()
		return nil, err
	}
	defer func() {
		if err != nil {
			valW.Abort()
			idxW.Abort()
			mrkW.Abort()
			_ = params.FS.Remove(metaPath(dir, id))
		}
	}()

	// Bottom model layer: learn over (key, value-file position). The index
	// builder collects each emitted model's (kmin, index-file position) to
	// drive the upper layers — O(#models) memory, a tiny fraction of the
	// data.
	ib := newIndexBuilder(idxW, params)
	builder, err := newSegmentBuilder(params.OptimalPLA, pagefile.Epsilon(params.PageSize, types.EntrySize), ib.writeModel)
	if err != nil {
		return nil, err
	}
	res, err := writeEntries(src, count, count, params, valW.Append, mrkW.Add, builder)
	if err != nil {
		return nil, err
	}
	if err := builder.Finish(); err != nil {
		return nil, err
	}
	layers, err := ib.finishLayers()
	if err != nil {
		return nil, err
	}
	if err := idxW.Finish(); err != nil {
		return nil, err
	}
	if err := valW.Finish(); err != nil {
		return nil, err
	}
	root, err := mrkW.Finish()
	if err != nil {
		return nil, err
	}
	return finishRun(dir, id, count, params, layers, root, res)
}

// writeBufferPages caps the coalescing buffers at the value file's own
// page count: a small run (an L0 flush, a shallow level) should not pay a
// ~1 MiB allocation per file to save syscalls it will never issue. The
// index and Merkle files are never larger than the value file.
func writeBufferPages(count int64, params Params) int {
	perPage := int64(pagefile.PerPage(params.PageSize, types.EntrySize))
	if vp := (count + perPage - 1) / perPage; int64(params.WriteBufferPages) > vp {
		return int(vp)
	}
	return params.WriteBufferPages
}

// spanResult is what one pass of writeEntries hands its caller: the
// span's Bloom contribution and key bounds.
type spanResult struct {
	filter *bloom.Filter
	minKey types.CompoundKey
	maxKey types.CompoundKey
}

// writeEntries is the per-entry loop of every run build — a whole
// sequential build is one call, a partitioned build one call per span:
// encode the entry and append it to the value file, take its Merkle leaf
// hash from the source when it can replay precomputed ones (a run's .mrk
// file, a reshard spool, or a merge of such sources — a stored leaf hash
// IS types.HashEntry of its entry) and compute it otherwise (L0 flushes
// arrive as plain slices), add the leaf, and insert the address into a
// Bloom filter with the full run's geometry. keys, when non-nil, receives
// every key with its position in the span (the inline PLA feed).
//
// src must yield exactly want entries. A source that died mid-stream is
// reported by its own error, not as the count mismatch it also causes.
func writeEntries(src Iterator, want, count int64, params Params,
	appendValue func([]byte) error, addLeaf func(types.Hash) error,
	keys segmentBuilder) (res spanResult, err error) {
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
// Shared by the sequential builder and the partitioned builder's stitch
// phase — upper-layer construction is identical either way, so the index
// file is byte-identical by construction.
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
		ub, err := newSegmentBuilder(b.params.OptimalPLA, epsIdx, b.writeModel)
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

// PageSizeOf reads the page size a run was built with from its metadata,
// so offline tools (reshard) can adopt the store's real geometry instead
// of requiring the operator to recall its creation options. A nil fsys is
// the real filesystem.
func PageSizeOf(fsys vfs.FS, dir string, id uint64) (int, error) {
	m, err := readMeta(vfs.OrOS(fsys), metaPath(dir, id))
	if err != nil {
		return 0, err
	}
	return m.PageSz, nil
}

// Open maps an existing run. Failures to read or cross-check any of
// the four files surface as *types.ErrCorrupt pinned to that file.
func Open(dir string, id uint64, params Params) (*Run, error) {
	params = params.withDefaults()
	meta, err := readMeta(params.FS, metaPath(dir, id))
	if err != nil {
		return nil, types.CorruptFrom(metaPath(dir, id), err)
	}
	if params.Fanout == 0 {
		params.Fanout = meta.Fanout
	}
	if meta.Fanout != params.Fanout {
		return nil, fmt.Errorf("run %d: fanout %d on disk, %d requested", id, meta.Fanout, params.Fanout)
	}
	if meta.PageSz != params.PageSize {
		return nil, fmt.Errorf("run %d: page size %d on disk, %d requested", id, meta.PageSz, params.PageSize)
	}
	filter, err := bloom.Unmarshal(meta.Bloom)
	if err != nil {
		return nil, types.CorruptFrom(metaPath(dir, id), fmt.Errorf("run %d: %w", id, err))
	}
	models, err := loadIndex(params.FS, indexPath(dir, id), params.PageSize, meta.Layers, meta.MinKey)
	if err != nil {
		return nil, err
	}
	values, err := pagefile.OpenFS(params.FS, valuePath(dir, id), params.PageSize, types.EntrySize, meta.Count, params.Cache)
	if err != nil {
		return nil, types.CorruptFrom(valuePath(dir, id), err)
	}
	merkle, err := mht.OpenFS(params.FS, merklePath(dir, id), meta.Count, meta.Fanout)
	if err != nil {
		_ = values.Close()
		return nil, types.CorruptFrom(merklePath(dir, id), err)
	}
	bloomDigest := filter.Digest()
	return &Run{
		ID:          id,
		dir:         dir,
		params:      params,
		count:       meta.Count,
		layers:      meta.Layers,
		models:      models,
		mhtRoot:     meta.Root,
		filter:      filter,
		bloomDigest: bloomDigest,
		digest:      types.HashData(meta.Root[:], bloomDigest[:]),
		minKey:      meta.MinKey,
		maxKey:      meta.MaxKey,
		values:      values,
		merkle:      merkle,
	}, nil
}

// loadIndex reads a run's whole .idx file and decodes every model layer.
// No digest covers the file, so everything a search relies on is checked
// here: the layers tile the file's pages bottom-up and end in a one-page
// top layer, and each layer's anchors start at the run's minimum key and
// strictly increase. What cannot be checked without the keys — that a
// slope and intercept keep their ε promise — is checked by every search.
func loadIndex(fsys vfs.FS, path string, pageSize int, layers []layerMeta, minKey types.CompoundKey) ([][]pla.Model, error) {
	raw, err := fsys.ReadFile(path)
	if err != nil {
		return nil, types.CorruptFrom(path, err)
	}
	perPage := int64(pagefile.PerPage(pageSize, pla.ModelSize))
	if perPage < 1 {
		return nil, fmt.Errorf("run: model record does not fit page size %d", pageSize)
	}
	filePages := int64(len(raw) / pageSize)
	models := make([][]pla.Model, len(layers))
	nextPage := int64(0)
	for li, l := range layers {
		top := li == len(layers)-1
		if l.Models < 1 || l.Pages != (l.Models+perPage-1)/perPage || l.StartPage != nextPage ||
			l.Pages > filePages-nextPage || (top && l.Pages != 1) {
			return nil, types.NewCorrupt(path, -1, fmt.Sprintf(
				"layer %d (%d models on %d pages from page %d) does not fit a %d-page index", li, l.Models, l.Pages, l.StartPage, filePages))
		}
		nextPage += l.Pages
		layer := make([]pla.Model, l.Models)
		for j := range layer {
			page := l.StartPage + int64(j)/perPage
			off := page*int64(pageSize) + int64(j)%perPage*pla.ModelSize
			m, err := pla.DecodeModel(raw[off : off+pla.ModelSize])
			if err != nil {
				return nil, types.NewCorrupt(path, page, err.Error())
			}
			if j == 0 && m.KMin != minKey {
				return nil, types.NewCorrupt(path, page, fmt.Sprintf("layer %d starts at %v, the run at %v", li, m.KMin, minKey))
			}
			if j > 0 && m.KMin.Cmp(layer[j-1].KMin) <= 0 {
				return nil, types.NewCorrupt(path, page, fmt.Sprintf("layer %d model %d does not start above its predecessor", li, j))
			}
			layer[j] = m
		}
		models[li] = layer
	}
	return models, nil
}

// Count returns the number of entries.
func (r *Run) Count() int64 { return r.count }

// MHTRoot returns the Merkle file root hash.
func (r *Run) MHTRoot() types.Hash { return r.mhtRoot }

// BloomDigest returns the digest of the serialized Bloom filter,
// computed once when the run was opened.
func (r *Run) BloomDigest() types.Hash { return r.bloomDigest }

// MayContain probes the run's Bloom filter: false means no version of
// addr exists in this run, so point lookups can skip its learned index
// entirely. The filter is immutable once the run is built, making the
// probe safe for concurrent readers.
func (r *Run) MayContain(addr types.Address) bool { return r.filter.MayContain(addr) }

// MayContainProbe is MayContain for an address the caller hashed once
// for the whole run list.
func (r *Run) MayContainProbe(p bloom.Probe) bool { return r.filter.MayContainProbe(p) }

// BloomBytes returns the serialized Bloom filter (for non-membership
// proofs). The result is a caller-owned copy of the resident bytes: a
// proof never aliases the filter the read path probes.
func (r *Run) BloomBytes() []byte { return r.filter.Marshal() }

// Digest returns the run's contribution to root_hash_list:
// H(mht_root ‖ bloom_digest), binding both data and filter (§4).
// Computed once when the run was opened.
func (r *Run) Digest() types.Hash { return r.digest }

// Digest recomputes a run digest from its components (verifier side).
func Digest(mhtRoot types.Hash, bloomBytes []byte) types.Hash {
	bd := types.HashData(bloomBytes)
	return types.HashData(mhtRoot[:], bd[:])
}

// MinKey returns the smallest stored key.
func (r *Run) MinKey() types.CompoundKey { return r.minKey }

// MaxKey returns the largest stored key.
func (r *Run) MaxKey() types.CompoundKey { return r.maxKey }

// Layers returns the number of learned-index layers.
func (r *Run) Layers() int { return len(r.layers) }

// Models returns the total number of learned models across layers.
func (r *Run) Models() int64 {
	var t int64
	for _, l := range r.layers {
		t += l.Models
	}
	return t
}

// Iter returns a sequential iterator over the run's entries in key order
// (used by level sort-merges, exports, and reshard). It streams through
// a private readahead buffer (Params.MergeReadahead pages per syscall)
// that bypasses the point-read page cache entirely: a background merge
// scanning this run evicts nothing concurrent readers have cached and
// takes no lock. Read errors surface through Err.
func (r *Run) Iter() *RunIterator {
	return &RunIterator{r: r, sr: r.values.SequentialReader(r.params.MergeReadahead)}
}

// IterRange returns a sequential iterator over value-file positions
// [lo, hi): the bounded sub-iterator a partitioned merge drives over one
// key-range span. Its readahead window is clipped to the span's pages,
// and LeafHash stays position-aligned with the full-run iterator.
func (r *Run) IterRange(lo, hi int64) *RunIterator {
	return &RunIterator{
		r:   r,
		sr:  r.values.SequentialReaderRange(r.params.MergeReadahead, lo, hi),
		pos: lo,
	}
}

// KeyAt reads just the compound key of the entry at a value-file
// position with one uncached positional read — the merge range planner's
// probe, which must not evict concurrent readers' cached pages.
func (r *Run) KeyAt(pos int64) (types.CompoundKey, error) {
	var buf [types.EntrySize]byte
	if err := r.values.RecordAt(pos, buf[:]); err != nil {
		return types.CompoundKey{}, err
	}
	return types.DecodeCompoundKey(buf[:types.CompoundKeySize])
}

// RunIterator streams a run's entries, and — on demand — the Merkle leaf
// hashes stored alongside them (HashedIterator): consumers that build a
// destination run reuse the precomputed hashes; consumers that only need
// the entries (exports) never touch the Merkle file.
type RunIterator struct {
	r      *Run
	sr     *pagefile.SequentialReader
	leaves *mht.LeafReader // lazily opened on first LeafHash
	pos    int64           // entries yielded so far
	err    error
}

// Next implements Iterator.
func (it *RunIterator) Next() (types.Entry, bool) {
	if it.err != nil {
		return types.Entry{}, false
	}
	rec, ok, err := it.sr.Next()
	if err != nil {
		it.err = err
		return types.Entry{}, false
	}
	if !ok {
		return types.Entry{}, false
	}
	e, err := types.DecodeEntry(rec)
	if err != nil {
		it.err = err
		return types.Entry{}, false
	}
	it.pos++
	return e, true
}

// Hashed implements HashedIterator: every run stores its leaf hashes.
func (it *RunIterator) Hashed() bool { return true }

// LeafHash returns the stored Merkle leaf hash of the entry most
// recently returned by Next, read through a readahead window of the
// run's .mrk file.
func (it *RunIterator) LeafHash() (types.Hash, error) {
	if it.leaves == nil {
		it.leaves = it.r.merkle.LeafStream(it.r.params.MergeReadahead * it.r.params.PageSize)
	}
	return it.leaves.At(it.pos - 1)
}

// Err reports a read failure that terminated the iterator early.
func (it *RunIterator) Err() error { return it.err }

// EntryAt reads the entry at a value-file position through the page
// cache (the point-read path: pin, decode, unpin).
func (r *Run) EntryAt(pos int64) (types.Entry, error) {
	if pos < 0 || pos >= r.count {
		return types.Entry{}, fmt.Errorf("run %d: position %d out of range [0,%d)", r.ID, pos, r.count)
	}
	pg, err := r.values.Pin(r.values.PageOf(pos))
	if err != nil {
		return types.Entry{}, err
	}
	defer pg.Release()
	return types.DecodeEntry(pg.Records[int(pos%int64(r.values.PerPage()))*types.EntrySize:])
}

// ProveRange builds an MHT range proof over value-file positions [lo, hi].
func (r *Run) ProveRange(lo, hi int64) (*mht.RangeProof, error) {
	return r.merkle.ProveRange(lo, hi)
}

// IOStats reports cumulative page reads on the value and index files.
// The index half is zero: the index is resident from Open on.
func (r *Run) IOStats() (value, index pagefile.IOStats) {
	return r.values.Stats(), pagefile.IOStats{}
}

// Close releases all file handles.
func (r *Run) Close() error {
	err1 := r.values.Close()
	err2 := r.merkle.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Remove closes the run and deletes its files (level-merge cleanup).
func (r *Run) Remove() error {
	firstErr := r.Close()
	for _, p := range []string{
		valuePath(r.dir, r.ID), indexPath(r.dir, r.ID),
		merklePath(r.dir, r.ID), metaPath(r.dir, r.ID),
	} {
		if err := r.params.FS.Remove(p); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SizeOnDisk sums the byte size of the run's files, split into value-file
// bytes ("data") and index+merkle+meta bytes ("index") for the storage
// breakdown experiments.
func (r *Run) SizeOnDisk() (data, index int64) {
	if st, err := r.params.FS.Stat(valuePath(r.dir, r.ID)); err == nil {
		data = st.Size()
	}
	for _, p := range []string{indexPath(r.dir, r.ID), merklePath(r.dir, r.ID), metaPath(r.dir, r.ID)} {
		if st, err := r.params.FS.Stat(p); err == nil {
			index += st.Size()
		}
	}
	return data, index
}

// ---- metadata encoding ----

type runMeta struct {
	Count  int64
	Fanout int
	PageSz int
	Layers []layerMeta
	Root   types.Hash
	Bloom  []byte
	MinKey types.CompoundKey
	MaxKey types.CompoundKey
}

func writeMeta(fsys vfs.FS, path string, m runMeta) error {
	buf := make([]byte, 0, 128+len(m.Bloom))
	var scratch [8]byte
	putU64 := func(v uint64) {
		binary.BigEndian.PutUint64(scratch[:], v)
		buf = append(buf, scratch[:]...)
	}
	putU64(uint64(m.Count))
	putU64(uint64(m.Fanout))
	putU64(uint64(m.PageSz))
	putU64(uint64(len(m.Layers)))
	for _, l := range m.Layers {
		putU64(uint64(l.StartPage))
		putU64(uint64(l.Pages))
		putU64(uint64(l.Models))
	}
	buf = append(buf, m.Root[:]...)
	buf = append(buf, m.MinKey.Bytes()...)
	buf = append(buf, m.MaxKey.Bytes()...)
	putU64(uint64(len(m.Bloom)))
	buf = append(buf, m.Bloom...)
	sum := types.HashData(buf)
	buf = append(buf, sum[:]...)

	// Durable replace: the metadata is the run's commit point, and its
	// rename must survive a crash (tmp fsync + parent directory fsync).
	// This also makes the sibling .val/.idx/.mrk directory entries,
	// already content-synced by their writers, durable.
	return vfs.WriteFileAtomic(fsys, path, buf, 0o644)
}

func readMeta(fsys vfs.FS, path string) (runMeta, error) {
	raw, err := fsys.ReadFile(path)
	if err != nil {
		return runMeta{}, err
	}
	if len(raw) < types.HashSize {
		return runMeta{}, fmt.Errorf("run: meta %s truncated", path)
	}
	body, sum := raw[:len(raw)-types.HashSize], raw[len(raw)-types.HashSize:]
	check := types.HashData(body)
	if string(check[:]) != string(sum) {
		return runMeta{}, fmt.Errorf("run: meta %s checksum mismatch", path)
	}
	var m runMeta
	off := 0
	getU64 := func() (uint64, error) {
		if off+8 > len(body) {
			return 0, fmt.Errorf("run: meta %s too short", path)
		}
		v := binary.BigEndian.Uint64(body[off:])
		off += 8
		return v, nil
	}
	var v uint64
	if v, err = getU64(); err != nil {
		return runMeta{}, err
	}
	m.Count = int64(v)
	if v, err = getU64(); err != nil {
		return runMeta{}, err
	}
	m.Fanout = int(v)
	if v, err = getU64(); err != nil {
		return runMeta{}, err
	}
	m.PageSz = int(v)
	nLayers, err := getU64()
	if err != nil {
		return runMeta{}, err
	}
	if nLayers == 0 || nLayers > 64 {
		return runMeta{}, fmt.Errorf("run: meta %s has %d layers", path, nLayers)
	}
	for i := uint64(0); i < nLayers; i++ {
		var l layerMeta
		if v, err = getU64(); err != nil {
			return runMeta{}, err
		}
		l.StartPage = int64(v)
		if v, err = getU64(); err != nil {
			return runMeta{}, err
		}
		l.Pages = int64(v)
		if v, err = getU64(); err != nil {
			return runMeta{}, err
		}
		l.Models = int64(v)
		m.Layers = append(m.Layers, l)
	}
	need := types.HashSize + 2*types.CompoundKeySize
	if off+need > len(body) {
		return runMeta{}, fmt.Errorf("run: meta %s too short", path)
	}
	copy(m.Root[:], body[off:])
	off += types.HashSize
	k, err := types.DecodeCompoundKey(body[off:])
	if err != nil {
		return runMeta{}, err
	}
	m.MinKey = k
	off += types.CompoundKeySize
	k, err = types.DecodeCompoundKey(body[off:])
	if err != nil {
		return runMeta{}, err
	}
	m.MaxKey = k
	off += types.CompoundKeySize
	blen, err := getU64()
	if err != nil {
		return runMeta{}, err
	}
	if blen > uint64(len(body)-off) {
		return runMeta{}, fmt.Errorf("run: meta %s bloom truncated", path)
	}
	// Aliases raw, which ReadFile handed to this call alone: Open wraps
	// these bytes as the run's resident filter without another copy.
	m.Bloom = body[off : off+int(blen)]
	return m, nil
}
