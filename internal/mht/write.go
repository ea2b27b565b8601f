package mht

import (
	"fmt"
	"os"

	"cole/internal/types"
	"cole/internal/vfs"
)

// This file is the one Merkle file writer: one or more workers, each
// streaming the leaves of one contiguous position span and cascading
// parents exactly as Algorithm 4 does — but only for the nodes whose
// children fall entirely inside the span. The handful of "straddler"
// nodes per layer whose children come from two spans (at most two per
// span boundary) are computed afterwards by Stitch, bottom-up, from the
// children already on disk. Every node lands at its precomputed layer
// offset, so the finished file and root are byte-identical for every
// span partitioning — the span [0, n) included, which owns every node and
// leaves Stitch nothing to fill.

// nodeRange is a half-open node-index range [lo, hi) at one MHT layer.
type nodeRange struct{ lo, hi int64 }

// spanRanges computes, for the leaf span [lo, hi), the node range each
// layer fully owns. A parent is owned when all its children lie inside
// the child layer's owned range; the last (possibly short) group of a
// layer counts as complete only when the child range reaches the end of
// its layer (SpanWriter.Close folds it).
func spanRanges(counts []int64, m int, lo, hi int64) []nodeRange {
	rs := make([]nodeRange, len(counts))
	rs[0] = nodeRange{lo, hi}
	for i := 1; i < len(counts); i++ {
		kl, kh := rs[i-1].lo, rs[i-1].hi
		a := (kl + int64(m) - 1) / int64(m)
		var b int64
		if kh == counts[i-1] {
			b = counts[i]
		} else {
			b = kh / int64(m)
		}
		if b < a {
			b = a
		}
		rs[i] = nodeRange{a, b}
	}
	return rs
}

// SharedWriter is a Merkle file pre-sized for n leaves that several
// SpanWriters fill concurrently, one per disjoint leaf span. Distinct
// spans own disjoint node ranges at every layer, so the writers never
// touch the same byte; Stitch completes the boundary nodes and returns
// the root.
type SharedWriter struct {
	fs        vfs.FS
	f         vfs.File
	path      string
	m         int
	n         int64
	counts    []int64
	offsets   []int64
	bufHashes int
	closed    bool
}

// CreateShared creates a Merkle file on fsys (nil = the real filesystem)
// for n leaves with fanout m ≥ 2, pre-sized for every layer. bufBytes is
// the per-layer, per-span write-coalescing budget (0 selects
// DefaultWriteBufferBytes; small values give per-node write granularity).
// The file bytes and root are identical for every buffer size.
func CreateShared(fsys vfs.FS, path string, n int64, m int, bufBytes int) (*SharedWriter, error) {
	fsys = vfs.OrOS(fsys)
	if m < 2 {
		return nil, fmt.Errorf("mht: fanout %d < 2", m)
	}
	if n < 1 {
		return nil, fmt.Errorf("mht: need at least one leaf, got %d", n)
	}
	if bufBytes < 1 {
		bufBytes = DefaultWriteBufferBytes
	}
	bufHashes := bufBytes / types.HashSize
	if bufHashes < 1 {
		bufHashes = 1
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	counts := LayerCounts(n, m)
	if err := f.Truncate(TotalNodes(counts) * types.HashSize); err != nil {
		_ = f.Close()
		_ = fsys.Remove(path)
		return nil, err
	}
	return &SharedWriter{
		fs:        fsys,
		f:         f,
		path:      path,
		m:         m,
		n:         n,
		counts:    counts,
		offsets:   LayerOffsets(counts),
		bufHashes: bufHashes,
	}, nil
}

// Span returns a writer for the leaves at positions [lo, hi). Spans must
// be disjoint; each SpanWriter is single-goroutine, but distinct spans
// may run concurrently.
func (s *SharedWriter) Span(lo, hi int64) (*SpanWriter, error) {
	if lo < 0 || hi <= lo || hi > s.n {
		return nil, fmt.Errorf("mht: bad leaf span [%d,%d) of %d in %s", lo, hi, s.n, s.path)
	}
	ranges := spanRanges(s.counts, s.m, lo, hi)
	w := &SpanWriter{
		s:      s,
		ranges: ranges,
		pend:   make([][]types.Hash, len(s.counts)),
		bufs:   make([][]byte, len(s.counts)),
		next:   make([]int64, len(s.counts)),
	}
	for i, r := range ranges {
		w.next[i] = r.lo
	}
	return w, nil
}

// SpanWriter streams the leaf hashes of one position span and writes
// every MHT node the span owns at its final file offset.
type SpanWriter struct {
	s      *SharedWriter
	ranges []nodeRange
	pend   [][]types.Hash // children of the next parent, per layer
	bufs   [][]byte       // coalesced unwritten node bytes, per layer
	next   []int64        // node index where bufs[i] begins
	added  int64
	closed bool
}

// Add appends the next leaf hash of the span.
func (w *SpanWriter) Add(leaf types.Hash) error {
	if w.closed {
		return fmt.Errorf("mht: add after Close on span of %s", w.s.path)
	}
	r := w.ranges[0]
	if w.added >= r.hi-r.lo {
		return fmt.Errorf("mht: more than %d leaves added to span [%d,%d) of %s", r.hi-r.lo, r.lo, r.hi, w.s.path)
	}
	k := r.lo + w.added
	w.added++
	return w.node(0, k, leaf)
}

// node records the hash at (layer i, index k) and cascades a parent when
// it completes a group the span owns. Children left of the span's first
// owned parent belong to a straddler and are skipped (Stitch rereads
// them from the file); a full group is always an owned parent.
func (w *SpanWriter) node(i int, k int64, h types.Hash) error {
	if err := w.stage(i, h); err != nil {
		return err
	}
	if i == len(w.s.counts)-1 {
		return nil
	}
	pr := w.ranges[i+1]
	if k < pr.lo*int64(w.s.m) {
		return nil
	}
	w.pend[i] = append(w.pend[i], h)
	if len(w.pend[i]) < w.s.m {
		return nil
	}
	parent := types.HashConcat(w.pend[i]...)
	w.pend[i] = w.pend[i][:0]
	p := k / int64(w.s.m)
	if p >= pr.hi {
		return fmt.Errorf("mht: span parent %d outside layer %d range [%d,%d) in %s", p, i+1, pr.lo, pr.hi, w.s.path)
	}
	return w.node(i+1, p, parent)
}

// stage buffers the node bytes for the layer's next sequential write.
func (w *SpanWriter) stage(i int, h types.Hash) error {
	w.bufs[i] = append(w.bufs[i], h[:]...)
	if len(w.bufs[i]) >= w.s.bufHashes*types.HashSize {
		return w.flushLayer(i)
	}
	return nil
}

func (w *SpanWriter) flushLayer(i int) error {
	if len(w.bufs[i]) == 0 {
		return nil
	}
	if _, err := w.s.f.WriteAt(w.bufs[i], (w.s.offsets[i]+w.next[i])*types.HashSize); err != nil {
		return err
	}
	w.next[i] += int64(len(w.bufs[i]) / types.HashSize)
	w.bufs[i] = w.bufs[i][:0]
	return nil
}

// Close folds the short trailing groups (Definition 2 allows a layer's
// last group fewer than m nodes; only the span that reaches the layer's
// end owns it) and flushes every layer. It verifies the span wrote
// exactly its owned node ranges.
func (w *SpanWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	r := w.ranges[0]
	if w.added != r.hi-r.lo {
		return fmt.Errorf("mht: span [%d,%d) of %s got %d leaves", r.lo, r.hi, w.s.path, w.added)
	}
	for i := 0; i < len(w.s.counts)-1; i++ {
		if w.ranges[i].hi == w.s.counts[i] && len(w.pend[i]) > 0 {
			parent := types.HashConcat(w.pend[i]...)
			w.pend[i] = w.pend[i][:0]
			if err := w.node(i+1, w.s.counts[i+1]-1, parent); err != nil {
				return err
			}
		}
	}
	for i := range w.bufs {
		if err := w.flushLayer(i); err != nil {
			return err
		}
		if w.next[i] != w.ranges[i].hi {
			return fmt.Errorf("mht: span layer %d wrote up to node %d, owns [%d,%d) in %s",
				i, w.next[i], w.ranges[i].lo, w.ranges[i].hi, w.s.path)
		}
	}
	return nil
}

// Stitch completes the Merkle file after every span writer has Closed:
// it fills, bottom-up, the straddler nodes no span owned (reading their
// children — contiguous, and complete by induction — straight from the
// file), then syncs, closes, and returns the root. spans must be the
// sorted, contiguous leaf spans covering [0, n) that were handed to
// Span.
func (s *SharedWriter) Stitch(spans [][2]int64) (types.Hash, error) {
	if s.closed {
		return types.Hash{}, fmt.Errorf("mht: stitch after close on %s", s.path)
	}
	var at int64
	for _, sp := range spans {
		if sp[0] != at || sp[1] <= sp[0] {
			return types.Hash{}, fmt.Errorf("mht: spans not contiguous at [%d,%d) (expected lo %d) in %s", sp[0], sp[1], at, s.path)
		}
		at = sp[1]
	}
	if at != s.n {
		return types.Hash{}, fmt.Errorf("mht: spans cover %d of %d leaves in %s", at, s.n, s.path)
	}
	perSpan := make([][]nodeRange, len(spans))
	for i, sp := range spans {
		perSpan[i] = spanRanges(s.counts, s.m, sp[0], sp[1])
	}
	for layer := 1; layer < len(s.counts); layer++ {
		var cur int64
		for _, rs := range perSpan {
			r := rs[layer]
			for p := cur; p < r.lo; p++ {
				if err := s.fillNode(layer, p); err != nil {
					return types.Hash{}, err
				}
			}
			if r.hi > cur {
				cur = r.hi
			}
		}
		for p := cur; p < s.counts[layer]; p++ {
			if err := s.fillNode(layer, p); err != nil {
				return types.Hash{}, err
			}
		}
	}
	var root types.Hash
	if _, err := s.f.ReadAt(root[:], (s.offsets[len(s.counts)-1])*types.HashSize); err != nil {
		return types.Hash{}, fmt.Errorf("mht: read root of %s: %w", s.path, err)
	}
	s.closed = true
	if err := s.f.Sync(); err != nil {
		_ = s.f.Close()
		return types.Hash{}, err
	}
	return root, s.f.Close()
}

// fillNode computes the node at (layer, p) from its children on disk.
func (s *SharedWriter) fillNode(layer int, p int64) error {
	m := int64(s.m)
	clo := p * m
	chi := clo + m
	if chi > s.counts[layer-1] {
		chi = s.counts[layer-1]
	}
	cnt := int(chi - clo)
	buf := make([]byte, cnt*types.HashSize)
	if _, err := s.f.ReadAt(buf, (s.offsets[layer-1]+clo)*types.HashSize); err != nil {
		return fmt.Errorf("mht: stitch read children of (%d,%d) in %s: %w", layer, p, s.path, err)
	}
	children := make([]types.Hash, cnt)
	for i := range children {
		copy(children[i][:], buf[i*types.HashSize:])
	}
	h := types.HashConcat(children...)
	if _, err := s.f.WriteAt(h[:], (s.offsets[layer]+p)*types.HashSize); err != nil {
		return fmt.Errorf("mht: stitch write node (%d,%d) in %s: %w", layer, p, s.path, err)
	}
	return nil
}

// Abort closes and removes a partially written file; errors are
// deliberately discarded (the caller is already failing and the file is
// about to be deleted or orphan-swept).
func (s *SharedWriter) Abort() {
	if !s.closed {
		s.closed = true
		_ = s.f.Close()
	}
	_ = s.fs.Remove(s.path)
}

// Writer writes a whole Merkle file as the one span [0, n).
type Writer struct{ span *SpanWriter }

// CreateWriter creates a Merkle file on the real filesystem for n leaves
// with fanout m ≥ 2, written by one span through the default buffer.
func CreateWriter(path string, n int64, m int) (*Writer, error) {
	s, err := CreateShared(nil, path, n, m, 0)
	if err != nil {
		return nil, err
	}
	span, err := s.Span(0, n)
	if err != nil {
		s.Abort()
		return nil, err
	}
	return &Writer{span}, nil
}

// Add appends the next leaf hash.
func (w *Writer) Add(leaf types.Hash) error { return w.span.Add(leaf) }

// Finish writes out the tree, syncs and closes the file, and returns the
// root; a tree short of its n leaves is an error and its file is removed.
func (w *Writer) Finish() (types.Hash, error) {
	s := w.span.s
	if err := w.span.Close(); err != nil {
		s.Abort()
		return types.Hash{}, err
	}
	return s.Stitch([][2]int64{{0, s.n}})
}
