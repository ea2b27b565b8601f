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
// All three files are written by one builder, Build, then never
// modified: "the index file remains valid from its construction until the
// next level merge" (§4.1). It makes one streaming pass over a sorted
// input — an L0 flush, a level sort-merge (MergeRuns, Algorithm 1's and
// Algorithm 5's merge) or a reshard destination's share — and that pass
// runs on two goroutines. The caller's iterates the source, encodes and
// appends values, feeds the learned index and fills the Bloom filter; a
// helper takes the entries in recycled batches of 256 and does the
// Merkle work — hashing each leaf (flushes) or taking the source's stored
// leaf hash (merges) — and finishes the Merkle file while the caller
// finishes the value file and the learned index. The value, Merkle and
// index fsyncs run concurrently and are all joined before the metadata
// file is written, so the commit point still follows every byte it
// names.
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
// leaf hash h(K‖value) from a precomputed source (a run's .mrk file).
// Build uses it to skip re-hashing every entry during level merges and
// bulk installs: the leaf hashes a source run stores are by construction
// exactly the digests the destination's MHT needs.
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

// BloomFP is the false-positive target every run's Bloom filter is sized
// for, and the engine's L0 group filters too. It is a constant: a run's
// digest covers its filter bytes, and no manifest records a target.
const BloomFP = 0.01

// Params configures run construction and opening.
type Params struct {
	// PageSize is the disk page size (pagefile.DefaultPageSize if 0).
	// Stores always use the default; run tests set smaller pages to get
	// multi-layer indexes at small sizes, and the page-size ablation
	// sweeps it.
	PageSize int
	Fanout   int // MHT fanout m (must be ≥ 2)
	// Cache is the page cache point reads of the value file go through: a
	// store hands every run of every engine its one cache. nil gives the
	// run a private one of pagefile.DefaultCachePages pages, which is what
	// standalone openers (fsck, reshard, probes) want.
	Cache *pagefile.Cache
	// VerifyReads makes every point lookup check the returned entry
	// against its stored Merkle leaf hash, turning silent value-page
	// bit rot into a typed ErrCorrupt at the cost of one hash read and
	// one SHA-256 per hit. Off by default.
	VerifyReads bool
	// FS is the filesystem the run's files live on (vfs.OS when nil).
	FS vfs.FS
}

func (p Params) withDefaults() Params {
	if p.PageSize == 0 {
		p.PageSize = pagefile.DefaultPageSize
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
	merkle, err := mht.OpenFS(params.FS, merklePath(dir, id), meta.Count, meta.Fanout, meta.Root)
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

// BloomBytes returns the serialized Bloom filter, the bytes BloomDigest
// hashes; tests use it as the reference for the run digest. The result
// is a caller-owned copy of the resident bytes.
func (r *Run) BloomBytes() []byte { return r.filter.Marshal() }

// Digest returns the run's contribution to root_hash_list:
// H(mht_root ‖ bloom_digest), binding both data and filter (§4).
// Computed once when the run was opened.
func (r *Run) Digest() types.Hash { return r.digest }

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
// a private readahead buffer (pagefile.DefaultReadaheadPages per syscall)
// that bypasses the point-read page cache entirely: a background merge
// scanning this run evicts nothing concurrent readers have cached and
// takes no lock. Read errors surface through Err.
func (r *Run) Iter() *RunIterator {
	return &RunIterator{r: r, sr: r.values.SequentialReader(pagefile.DefaultReadaheadPages)}
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
		it.leaves = it.r.merkle.LeafStream(pagefile.DefaultReadaheadPages * it.r.params.PageSize)
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
