package run

import (
	"errors"
	"fmt"
	"sync/atomic"

	"cole/internal/bloom"
	"cole/internal/mht"
	"cole/internal/pagefile"
	"cole/internal/pla"
	"cole/internal/types"
)

// Build streams a sorted iterator into a new run; count must equal the
// number of entries src yields. One pass over src writes the value file,
// feeds the learned index's bottom PLA layer inline and fills the Bloom
// filter, while a helper goroutine does the Merkle work (writeEntries).
// Once the source is drained the helper finishes the Merkle file as this
// goroutine finishes the learned index and, on a third, the value file,
// so the three fsyncs overlap; all are joined before the metadata file,
// the run's commit point, is written. On failure every file is removed.
func Build(dir string, id uint64, count int64, params Params, src Iterator) (r *Run, err error) {
	params = params.withDefaults()
	if params.Fanout < 2 {
		return nil, fmt.Errorf("run: MHT fanout %d < 2", params.Fanout)
	}
	if count < 1 {
		return nil, fmt.Errorf("run: empty runs are not built (count=%d)", count)
	}

	wbufPages := writeBufferPages(count, params)
	val, err := pagefile.Create(params.FS, valuePath(dir, id), params.PageSize, types.EntrySize, wbufPages)
	if err != nil {
		return nil, err
	}
	idx, err := pagefile.Create(params.FS, indexPath(dir, id), params.PageSize, pla.ModelSize, wbufPages)
	if err != nil {
		val.Abort()
		return nil, err
	}
	mrk, err := mht.Create(params.FS, merklePath(dir, id), count, params.Fanout, wbufPages*params.PageSize)
	if err != nil {
		val.Abort()
		idx.Abort()
		return nil, err
	}
	defer func() {
		if err != nil {
			val.Abort()
			idx.Abort()
			mrk.Abort()
			_ = params.FS.Remove(metaPath(dir, id))
		}
	}()

	// Bottom model layer: learn over (key, value-file position). The index
	// builder collects each emitted model's (kmin, index-file position) to
	// drive the upper layers — O(#models) memory, a tiny fraction of the
	// data.
	ib := newIndexBuilder(idx, params)
	keys, err := pla.NewBuilder(pagefile.Epsilon(params.PageSize, types.EntrySize), ib.writeModel)
	if err != nil {
		return nil, err
	}
	var layers []layerMeta
	sum, root, err := writeEntries(src, count, params, val, mrk, keys, func() error {
		waitVal := async(val.Finish)
		var err error
		layers, err = ib.finish(keys)
		if verr := waitVal(); err == nil {
			err = verr
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return finishRun(dir, id, count, params, layers, root, sum)
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

// summary is what writeEntries hands its caller besides the Merkle root:
// the run's Bloom filter and key bounds.
type summary struct {
	filter *bloom.Filter
	minKey types.CompoundKey
	maxKey types.CompoundKey
}

// writeEntries is the per-entry loop of every run build, and it is a
// two-stage pipeline. The caller's goroutine iterates src, encodes each
// entry and appends it to the value file, feeds keys (the bottom PLA
// layer: every key with its position) and inserts the address into the
// Bloom filter. One helper goroutine, a merkleStage, owns the Merkle
// writer. It takes the entries in batches: a source that can replay
// precomputed leaf hashes (a run's .mrk file, a merge of such sources,
// or a reshard destination's share of one — a stored leaf hash IS
// types.HashEntry of its entry) hands over its leaf hashes, and any other
// source (L0 flushes arrive as plain slices) hands over its entries for
// the helper to hash.
//
// Once src is drained the helper finishes the Merkle file and takes its
// root while tail (the value file's and learned index's finish) runs
// here. On every return the helper has exited.
//
// src must yield exactly count entries. A source that died mid-stream is
// reported by its own error, not as the count mismatch it also causes. A
// Merkle write error is reported before any error of the entry loop or
// of tail.
func writeEntries(src Iterator, count int64, params Params, val *pagefile.Writer, mrk *mht.Writer,
	keys *pla.Builder, tail func() error) (sum summary, root types.Hash, err error) {
	sum.filter = bloom.New(int(count), params.BloomFP)
	var hashSrc HashedIterator
	if h, ok := src.(HashedIterator); ok && h.Hashed() {
		hashSrc = h
	}
	stage := startMerkleStage(mrk, int(min(count, pipeBatch)), hashSrc != nil)
	defer func() {
		if serr := stage.finish(err == nil, tail); serr != nil {
			err = serr
		}
		root = stage.root
	}()
	b := <-stage.free
	var seen int64
	entryBuf := make([]byte, types.EntrySize)
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		if seen >= count {
			return sum, root, fmt.Errorf("run: iterator yielded more than %d entries", count)
		}
		// Consecutive versions of one address are adjacent in compound-key
		// order; the filter insert is idempotent, so only the first needs
		// the SHA-256 base hashes.
		sameAddr := seen > 0 && e.Key.Addr == sum.maxKey.Addr
		if seen == 0 {
			sum.minKey = e.Key
		}
		sum.maxKey = e.Key
		types.EncodeEntry(entryBuf, e)
		if err := val.Append(entryBuf); err != nil {
			return sum, root, err
		}
		if err := keys.Add(e.Key, seen); err != nil {
			return sum, root, err
		}
		if hashSrc != nil {
			if b.leaves[b.n], err = hashSrc.LeafHash(); err != nil {
				return sum, root, err
			}
		} else {
			b.entries[b.n] = e
		}
		b.n++
		if sameAddr {
			sum.filter.AddRepeat()
		} else {
			sum.filter.Add(e.Key.Addr)
		}
		seen++
		if b.n == b.size() {
			if b, err = stage.handoff(b); err != nil {
				return sum, root, err
			}
		}
	}
	if err := sourceErr(src); err != nil {
		return sum, root, err
	}
	if seen != count {
		return sum, root, fmt.Errorf("run: iterator yielded %d entries, expected %d", seen, count)
	}
	if b.n > 0 {
		stage.full <- b
	}
	return sum, root, nil
}

// The Merkle stage's batching: pipeBatch entries per hand-off, pipeDepth
// batches in circulation, so the entry loop can run up to two batches
// ahead of the hashing before it waits.
const (
	pipeBatch = 256
	pipeDepth = 3
)

// leafBatch is one hand-off from the entry loop to the Merkle stage:
// the first n slots of leaves (stored leaf hashes) or of entries (to be
// hashed), whichever the build's source supplies.
type leafBatch struct {
	leaves  []types.Hash
	entries []types.Entry
	n       int
}

func (b *leafBatch) size() int { return max(len(b.leaves), len(b.entries)) }

// add feeds the batch's leaves to the Merkle writer in order.
func (b *leafBatch) add(mrk *mht.Writer) error {
	for i := 0; i < b.n; i++ {
		var leaf types.Hash
		if b.leaves != nil {
			leaf = b.leaves[i]
		} else {
			leaf = types.HashEntry(b.entries[i])
		}
		if err := mrk.Add(leaf); err != nil {
			return err
		}
	}
	return nil
}

// errMerkleStage stops the entry loop once the helper has failed; finish
// replaces it with the helper's own error.
var errMerkleStage = errors.New("run: Merkle stage failed")

// merkleStage is writeEntries' helper goroutine. Batches circulate
// through two channels, each with room for every batch, so neither side
// blocks on a send; the loop owns a batch from a receive on free until
// its send on full, the helper from a receive on full until its send on
// free.
type merkleStage struct {
	free, full chan *leafBatch
	// failed is set once the helper has met an error: it keeps recycling
	// batches but adds nothing more, and the loop stops at its next
	// hand-off.
	failed atomic.Bool
	// complete, written before full is closed, tells the helper the loop
	// completed and the Merkle file is to be finished.
	complete bool
	// root is the finished file's root, written by the helper before it
	// sends on done.
	root types.Hash
	done chan error
}

func startMerkleStage(mrk *mht.Writer, size int, hashed bool) *merkleStage {
	s := &merkleStage{
		free: make(chan *leafBatch, pipeDepth),
		full: make(chan *leafBatch, pipeDepth),
		done: make(chan error, 1),
	}
	for i := 0; i < pipeDepth; i++ {
		b := &leafBatch{}
		if hashed {
			b.leaves = make([]types.Hash, size)
		} else {
			b.entries = make([]types.Entry, size)
		}
		s.free <- b
	}
	go s.run(mrk)
	return s
}

func (s *merkleStage) run(mrk *mht.Writer) {
	var err error
	for b := range s.full {
		if err == nil {
			if err = b.add(mrk); err != nil {
				s.failed.Store(true)
			}
		}
		b.n = 0
		s.free <- b
	}
	if err == nil && s.complete {
		s.root, err = mrk.Finish()
	}
	s.done <- err
}

// handoff passes a full batch to the helper and returns an empty one.
func (s *merkleStage) handoff(b *leafBatch) (*leafBatch, error) {
	s.full <- b
	if s.failed.Load() {
		return nil, errMerkleStage
	}
	return <-s.free, nil
}

// finish ends the stage and waits for the helper to exit. ok reports
// that the entry loop completed: the helper then finishes the Merkle file
// while tail runs here. The helper's error comes first, then tail's.
func (s *merkleStage) finish(ok bool, tail func() error) error {
	s.complete = ok
	close(s.full)
	var err error
	if ok {
		err = tail()
	}
	if serr := <-s.done; serr != nil {
		return serr
	}
	return err
}

// async runs fn on its own goroutine; the returned func waits for it and
// returns fn's error.
func async(fn func() error) func() error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	return func() error { return <-done }
}

// finishRun writes the metadata file — the run's commit point — and opens
// the finished run.
func finishRun(dir string, id uint64, count int64, params Params, layers []layerMeta, root types.Hash, sum summary) (*Run, error) {
	meta := runMeta{
		Count:  count,
		Fanout: params.Fanout,
		Layers: layers,
		Root:   root,
		Bloom:  sum.filter.Marshal(),
		MinKey: sum.minKey,
		MaxKey: sum.maxKey,
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

// finish closes the bottom layer's last model, builds the upper layers,
// and finishes (writes out, syncs and closes) the index file.
func (b *indexBuilder) finish(keys *pla.Builder) ([]layerMeta, error) {
	if err := keys.Finish(); err != nil {
		return nil, err
	}
	layers, err := b.finishLayers()
	if err != nil {
		return nil, err
	}
	return layers, b.idxW.Finish()
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
