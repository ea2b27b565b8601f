// Package mht implements COLE's m-ary complete Merkle Hash Trees (§4.2).
//
// Each on-disk run stores a Merkle file: the bottom layer holds
// h(K_i ‖ value_i) for every entry of the value file (same position), and
// each upper layer hashes groups of m children, the last group possibly
// shorter (Definition 2). Construction is streaming and layer-concurrent
// (Algorithm 4): one buffer per layer, flushed to the file at precomputed
// layer offsets, so a run's Merkle file is produced in a single pass over
// the sorted entries with O(m·log_m n) memory.
//
// Range proofs authenticate a contiguous span of positions [lo, hi]: per
// layer, the proof carries the sibling hashes flanking the span inside its
// boundary groups; verification recomputes the root. Because value file and
// Merkle file share positions, a provenance scan's results are proven by
// the positions of its first and last entries (§6.2).
package mht

import (
	"fmt"
	"os"
	"sync/atomic"

	"cole/internal/types"
	"cole/internal/vfs"
)

// LayerCounts returns the node count of every MHT layer, bottom first:
// [n, ⌈n/m⌉, ⌈n/m²⌉, …, 1].
func LayerCounts(n int64, m int) []int64 {
	if n <= 0 {
		return nil
	}
	counts := []int64{n}
	for counts[len(counts)-1] > 1 {
		c := counts[len(counts)-1]
		counts = append(counts, (c+int64(m)-1)/int64(m))
	}
	return counts
}

// LayerOffsets returns the file offset (in hash records) of each layer.
func LayerOffsets(counts []int64) []int64 {
	offs := make([]int64, len(counts))
	for i := 1; i < len(counts); i++ {
		offs[i] = offs[i-1] + counts[i-1]
	}
	return offs
}

// TotalNodes returns the total number of hash records in the Merkle file.
func TotalNodes(counts []int64) int64 {
	var t int64
	for _, c := range counts {
		t += c
	}
	return t
}

// DefaultWriteBufferBytes is the per-layer coalescing budget of a Writer
// (~1 MiB of hashes per write syscall).
const DefaultWriteBufferBytes = 1 << 20

// Writer streams an m-ary complete MHT to disk (Algorithm 4). The total
// stream size n must be known up front (it is: a run's size is fixed by its
// level). Nodes are held in per-layer buffers and flushed in coalesced
// multi-node writes instead of one tiny WriteAt per completed group; the
// file bytes are identical for every buffer size.
type Writer struct {
	fs      vfs.FS
	f       vfs.File
	path    string
	m       int
	counts  []int64
	offsets []int64
	flushed []int64 // records flushed per layer
	bufs    [][]types.Hash
	// ungrouped is the tail of bufs[i] not yet folded into a parent; the
	// grouped prefix is final and flushable at any time.
	ungrouped []int
	// bufHashes is the coalescing threshold: a layer's grouped prefix is
	// written once it holds at least this many nodes.
	bufHashes int
	added     int64
	n         int64
	root      types.Hash
	done      bool
}

// CreateWriter is CreateWriterFS on the real filesystem with the default
// write-coalescing buffer.
func CreateWriter(path string, n int64, m int) (*Writer, error) {
	return CreateWriterFS(nil, path, n, m, 0)
}

// CreateWriterFS creates a Merkle file on fsys (nil = the real
// filesystem) for n leaves with fanout m ≥ 2, whose node writes are
// coalesced into syscalls of roughly bufBytes (0 selects
// DefaultWriteBufferBytes; small values give per-group write
// granularity). The on-disk bytes and root are identical for every
// buffer size.
func CreateWriterFS(fsys vfs.FS, path string, n int64, m int, bufBytes int) (*Writer, error) {
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
	w := &Writer{
		fs:        fsys,
		f:         f,
		path:      path,
		m:         m,
		counts:    counts,
		offsets:   LayerOffsets(counts),
		flushed:   make([]int64, len(counts)),
		bufs:      make([][]types.Hash, len(counts)),
		ungrouped: make([]int, len(counts)),
		bufHashes: bufHashes,
		n:         n,
	}
	if err := f.Truncate(TotalNodes(counts) * types.HashSize); err != nil {
		_ = f.Close()
		return nil, err
	}
	return w, nil
}

// push appends a node to a layer buffer; the single node of the top
// layer is the root.
func (w *Writer) push(i int, h types.Hash) {
	w.bufs[i] = append(w.bufs[i], h)
	w.ungrouped[i]++
	if i == len(w.counts)-1 {
		w.root = h
	}
}

// Add appends the next leaf hash (h(K‖value) of the entry at the current
// position).
func (w *Writer) Add(leaf types.Hash) error {
	if w.done {
		return fmt.Errorf("mht: add after Finish on %s", w.path)
	}
	if w.added >= w.n {
		return fmt.Errorf("mht: more than %d leaves added to %s", w.n, w.path)
	}
	w.added++
	w.push(0, leaf)
	for i := 0; i < len(w.counts)-1; i++ {
		if w.ungrouped[i] < w.m {
			break
		}
		parent := types.HashConcat(w.bufs[i][len(w.bufs[i])-w.m:]...)
		w.ungrouped[i] = 0
		if err := w.maybeFlush(i); err != nil {
			return err
		}
		w.push(i+1, parent)
	}
	return nil
}

// maybeFlush writes a layer's grouped prefix once it exceeds the
// coalescing threshold (capped at the layer's total node count — small
// upper layers flush once, at Finish).
func (w *Writer) maybeFlush(i int) error {
	grouped := len(w.bufs[i]) - w.ungrouped[i]
	if int64(grouped) < min(int64(w.bufHashes), w.counts[i]) {
		return nil
	}
	return w.flushLayer(i, grouped)
}

// flushLayer writes the first k buffered nodes of layer i at their file
// offsets in one syscall and shifts the unflushed tail down.
func (w *Writer) flushLayer(i, k int) error {
	if k == 0 {
		return nil
	}
	buf := make([]byte, 0, k*types.HashSize)
	for _, h := range w.bufs[i][:k] {
		buf = append(buf, h[:]...)
	}
	off := (w.offsets[i] + w.flushed[i]) * types.HashSize
	if _, err := w.f.WriteAt(buf, off); err != nil {
		return err
	}
	w.flushed[i] += int64(k)
	rest := copy(w.bufs[i], w.bufs[i][k:])
	w.bufs[i] = w.bufs[i][:rest]
	return nil
}

// Finish drains the per-layer buffers (Lines 15–18 of Algorithm 4), syncs
// and closes the file, and returns the root hash.
func (w *Writer) Finish() (types.Hash, error) {
	if w.done {
		return w.root, nil
	}
	if w.added != w.n {
		_ = w.f.Close()
		return types.Hash{}, fmt.Errorf("mht: %d leaves added, expected %d", w.added, w.n)
	}
	d := len(w.counts)
	for i := 0; i < d; i++ {
		// Fold the short trailing group into its parent (Definition 2
		// allows the last group of a layer to hold fewer than m nodes).
		if i < d-1 && w.ungrouped[i] > 0 {
			parent := types.HashConcat(w.bufs[i][len(w.bufs[i])-w.ungrouped[i]:]...)
			w.ungrouped[i] = 0
			w.push(i+1, parent)
		}
		if err := w.flushLayer(i, len(w.bufs[i])); err != nil {
			_ = w.f.Close()
			return types.Hash{}, err
		}
	}
	// Sanity: every layer fully flushed.
	for i, c := range w.counts {
		if w.flushed[i] != c {
			_ = w.f.Close()
			return types.Hash{}, fmt.Errorf("mht: layer %d flushed %d of %d nodes", i, w.flushed[i], c)
		}
	}
	// (push captured the root when the top layer's single node arrived —
	// in Add's cascade, in the drain above, or, for a one-leaf tree, at
	// the leaf itself.)
	w.done = true
	if err := w.f.Sync(); err != nil {
		_ = w.f.Close()
		return types.Hash{}, err
	}
	return w.root, w.f.Close()
}

// Abort closes and removes a partially written file; errors are
// deliberately discarded (the caller is already failing and the file is
// about to be deleted or orphan-swept).
func (w *Writer) Abort() {
	if !w.done {
		w.done = true
		_ = w.f.Close()
	}
	_ = w.fs.Remove(w.path)
}

// File reads a Merkle file produced by Writer.
type File struct {
	f       vfs.File
	path    string
	m       int
	n       int64
	counts  []int64
	offsets []int64

	// hashReads is atomic: proof building runs on the engine's lock-free
	// read path, where any number of readers share one File.
	hashReads atomic.Int64
}

// Open is OpenFS on the real filesystem.
func Open(path string, n int64, m int) (*File, error) {
	return OpenFS(nil, path, n, m)
}

// OpenFS opens a Merkle file on fsys (nil = the real filesystem) for n
// leaves with fanout m.
func OpenFS(fsys vfs.FS, path string, n int64, m int) (*File, error) {
	fsys = vfs.OrOS(fsys)
	if m < 2 || n < 1 {
		return nil, fmt.Errorf("mht: invalid geometry n=%d m=%d", n, m)
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	counts := LayerCounts(n, m)
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if st.Size() < TotalNodes(counts)*types.HashSize {
		_ = f.Close()
		return nil, fmt.Errorf("mht: %s has %d bytes, need %d", path, st.Size(), TotalNodes(counts)*types.HashSize)
	}
	return &File{f: f, path: path, m: m, n: n, counts: counts, offsets: LayerOffsets(counts)}, nil
}

// Layers returns the number of MHT layers.
func (r *File) Layers() int { return len(r.counts) }

// Leaves returns n.
func (r *File) Leaves() int64 { return r.n }

// NodeHash reads the hash at (layer, idx).
func (r *File) NodeHash(layer int, idx int64) (types.Hash, error) {
	if layer < 0 || layer >= len(r.counts) || idx < 0 || idx >= r.counts[layer] {
		return types.Hash{}, fmt.Errorf("mht: node (%d,%d) out of range in %s", layer, idx, r.path)
	}
	var h types.Hash
	if _, err := r.f.ReadAt(h[:], (r.offsets[layer]+idx)*types.HashSize); err != nil {
		return types.Hash{}, err
	}
	r.hashReads.Add(1)
	return h, nil
}

// Root returns the root hash (the last record of the file).
func (r *File) Root() (types.Hash, error) {
	return r.NodeHash(len(r.counts)-1, 0)
}

// HashReads returns how many node hashes were fetched (IO accounting).
func (r *File) HashReads() int64 { return r.hashReads.Load() }

// LeafReader streams the bottom-layer leaf hashes through a private
// readahead buffer: one ReadAt per window instead of one per hash, and
// nothing shared with concurrent proof readers. It serves the leaf-hash
// passthrough of level merges — the leaf hashes a source run already
// stores are exactly the h(K‖value) digests the destination run's
// builder needs, so re-reading them here replaces one SHA-256 per entry.
// Access is positional (At) so consumers that interleave several sources
// stay correct; sequential consumption costs one syscall per window.
type LeafReader struct {
	f     *File
	buf   []byte
	start int64 // leaf index of buf[0]
	n     int64 // valid leaves in buf
	win   int64 // leaves per refill
}

// LeafStream returns a reader over the file's leaf hashes with a
// readahead window of roughly bufBytes (0 selects
// DefaultWriteBufferBytes).
func (r *File) LeafStream(bufBytes int) *LeafReader {
	if bufBytes < 1 {
		bufBytes = DefaultWriteBufferBytes
	}
	win := int64(bufBytes / types.HashSize)
	if win < 1 {
		win = 1
	}
	if win > r.n {
		win = r.n
	}
	return &LeafReader{f: r, win: win}
}

// At returns the leaf hash at position i, refilling the window from i
// when i falls outside it.
func (l *LeafReader) At(i int64) (types.Hash, error) {
	if i < 0 || i >= l.f.n {
		return types.Hash{}, fmt.Errorf("mht: leaf %d out of range [0,%d) in %s", i, l.f.n, l.f.path)
	}
	if i < l.start || i >= l.start+l.n {
		if l.buf == nil {
			l.buf = make([]byte, l.win*types.HashSize)
		}
		n := l.win
		if rest := l.f.n - i; rest < n {
			n = rest
		}
		off := (l.f.offsets[0] + i) * types.HashSize
		if _, err := l.f.f.ReadAt(l.buf[:n*types.HashSize], off); err != nil {
			return types.Hash{}, fmt.Errorf("mht: leaf read [%d,%d) of %s: %w", i, i+n, l.f.path, err)
		}
		l.start, l.n = i, n
	}
	var h types.Hash
	copy(h[:], l.buf[(i-l.start)*types.HashSize:])
	return h, nil
}

// Close releases the file handle.
func (r *File) Close() error { return r.f.Close() }

// RangeProof authenticates the leaves at positions [Lo, Hi] of an n-leaf
// m-ary MHT. Per layer it carries the sibling hashes to the left of the
// span start and to the right of the span end within their groups.
type RangeProof struct {
	N  int64 // total leaves
	M  int   // fanout
	Lo int64 // first proven position
	Hi int64 // last proven position
	// Left[i] / Right[i] are the flanking sibling hashes at layer i.
	Left  [][]types.Hash
	Right [][]types.Hash
}

// Size returns the proof's wire size in bytes (hash payload plus the
// fixed header fields); used by the proof-size experiments.
func (p *RangeProof) Size() int {
	nh := 0
	for i := range p.Left {
		nh += len(p.Left[i]) + len(p.Right[i])
	}
	return nh*types.HashSize + 8*3 + 4 + 2*len(p.Left)
}

// ProveRange builds a range proof for leaf positions [lo, hi].
func (r *File) ProveRange(lo, hi int64) (*RangeProof, error) {
	if lo < 0 || hi < lo || hi >= r.n {
		return nil, fmt.Errorf("mht: bad range [%d,%d] of %d leaves", lo, hi, r.n)
	}
	p := &RangeProof{N: r.n, M: r.m, Lo: lo, Hi: hi}
	l, h := lo, hi
	for layer := 0; layer < len(r.counts)-1; layer++ {
		groupStart := (l / int64(r.m)) * int64(r.m)
		groupEnd := (h/int64(r.m))*int64(r.m) + int64(r.m) - 1
		if groupEnd >= r.counts[layer] {
			groupEnd = r.counts[layer] - 1
		}
		var left, right []types.Hash
		for i := groupStart; i < l; i++ {
			hh, err := r.NodeHash(layer, i)
			if err != nil {
				return nil, err
			}
			left = append(left, hh)
		}
		for i := h + 1; i <= groupEnd; i++ {
			hh, err := r.NodeHash(layer, i)
			if err != nil {
				return nil, err
			}
			right = append(right, hh)
		}
		p.Left = append(p.Left, left)
		p.Right = append(p.Right, right)
		l /= int64(r.m)
		h /= int64(r.m)
	}
	return p, nil
}

// VerifyRange recomputes the root from the claimed leaf hashes of
// positions [proof.Lo, proof.Hi] and the proof's flanking siblings.
// It returns the reconstructed root; the caller compares it against the
// authenticated root (e.g. from root_hash_list / Hstate).
func VerifyRange(proof *RangeProof, leaves []types.Hash) (types.Hash, error) {
	if proof.N < 1 || proof.M < 2 {
		return types.Hash{}, fmt.Errorf("mht: corrupt proof geometry n=%d m=%d", proof.N, proof.M)
	}
	if proof.Lo < 0 || proof.Hi < proof.Lo || proof.Hi >= proof.N {
		return types.Hash{}, fmt.Errorf("mht: corrupt proof range [%d,%d]", proof.Lo, proof.Hi)
	}
	if int64(len(leaves)) != proof.Hi-proof.Lo+1 {
		return types.Hash{}, fmt.Errorf("mht: %d leaf hashes for range [%d,%d]", len(leaves), proof.Lo, proof.Hi)
	}
	counts := LayerCounts(proof.N, proof.M)
	if len(proof.Left) != len(counts)-1 || len(proof.Right) != len(counts)-1 {
		return types.Hash{}, fmt.Errorf("mht: proof has %d layers, want %d", len(proof.Left), len(counts)-1)
	}
	m := int64(proof.M)
	cur := leaves
	l, h := proof.Lo, proof.Hi
	for layer := 0; layer < len(counts)-1; layer++ {
		groupStart := (l / m) * m
		groupEnd := (h/m)*m + m - 1
		if groupEnd >= counts[layer] {
			groupEnd = counts[layer] - 1
		}
		if int64(len(proof.Left[layer])) != l-groupStart ||
			int64(len(proof.Right[layer])) != groupEnd-h {
			return types.Hash{}, fmt.Errorf("mht: layer %d sibling count mismatch", layer)
		}
		// Assemble the full covered node span [groupStart, groupEnd].
		span := make([]types.Hash, 0, groupEnd-groupStart+1)
		span = append(span, proof.Left[layer]...)
		span = append(span, cur...)
		span = append(span, proof.Right[layer]...)
		// Hash each complete (possibly short, if last) group into parents.
		var parents []types.Hash
		for gs := groupStart; gs <= groupEnd; gs += m {
			ge := gs + m - 1
			if ge > groupEnd {
				ge = groupEnd
			}
			grp := span[gs-groupStart : ge-groupStart+1]
			parents = append(parents, types.HashConcat(grp...))
		}
		cur = parents
		l /= m
		h /= m
	}
	if len(cur) != 1 {
		return types.Hash{}, fmt.Errorf("mht: verification converged to %d nodes", len(cur))
	}
	return cur[0], nil
}

// ProveRangeOf builds a range proof for leaf positions [lo, hi] of an
// m-ary MHT computed entirely in memory — the counterpart of
// File.ProveRange for small trees that are never written to disk, such
// as the per-shard root list of a sharded store. The proof verifies with
// VerifyRange against RootOf(leaves, m).
func ProveRangeOf(leaves []types.Hash, m int, lo, hi int64) (*RangeProof, error) {
	n := int64(len(leaves))
	if m < 2 {
		return nil, fmt.Errorf("mht: fanout %d < 2", m)
	}
	if lo < 0 || hi < lo || hi >= n {
		return nil, fmt.Errorf("mht: bad range [%d,%d] of %d leaves", lo, hi, n)
	}
	counts := LayerCounts(n, m)
	p := &RangeProof{N: n, M: m, Lo: lo, Hi: hi}
	layer := leaves
	l, h := lo, hi
	for li := 0; li < len(counts)-1; li++ {
		groupStart := (l / int64(m)) * int64(m)
		groupEnd := (h/int64(m))*int64(m) + int64(m) - 1
		if groupEnd >= counts[li] {
			groupEnd = counts[li] - 1
		}
		p.Left = append(p.Left, append([]types.Hash(nil), layer[groupStart:l]...))
		p.Right = append(p.Right, append([]types.Hash(nil), layer[h+1:groupEnd+1]...))
		next := make([]types.Hash, 0, counts[li+1])
		for i := int64(0); i < counts[li]; i += int64(m) {
			j := i + int64(m)
			if j > counts[li] {
				j = counts[li]
			}
			next = append(next, types.HashConcat(layer[i:j]...))
		}
		layer = next
		l /= int64(m)
		h /= int64(m)
	}
	return p, nil
}

// RootOf computes the m-ary MHT root of a leaf set entirely in memory
// (used for transaction digests in block headers and for tests).
func RootOf(leaves []types.Hash, m int) types.Hash {
	if len(leaves) == 0 {
		return types.ZeroHash
	}
	cur := leaves
	for len(cur) > 1 {
		var next []types.Hash
		for i := 0; i < len(cur); i += m {
			j := i + m
			if j > len(cur) {
				j = len(cur)
			}
			next = append(next, types.HashConcat(cur[i:j]...))
		}
		cur = next
	}
	return cur[0]
}
