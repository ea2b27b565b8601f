// Package mht implements COLE's m-ary complete Merkle Hash Trees (§4.2).
//
// Each on-disk run stores a Merkle file: the bottom layer holds
// h(K_i ‖ value_i) for every entry of the value file (same position), and
// each upper layer hashes groups of m children, the last group possibly
// shorter (Definition 2). Construction is the single streaming,
// layer-concurrent pass of Algorithm 4: a Writer takes the leaves in
// position order, keeps one buffer per layer, flushed at precomputed
// layer offsets, and cascades each parent as its group completes, with
// O(m·log_m n) memory.
//
// Range proofs authenticate a contiguous span of positions [lo, hi]: per
// layer, the proof carries the sibling hashes flanking the span inside its
// boundary groups; verification recomputes the root. Because value file and
// Merkle file share positions, a provenance scan's results are proven by
// the positions of its first and last entries (§6.2).
//
// A File proves from two sources. Layers 0 and 1 stay on disk and cost a
// proof one read each, of just the boundary-group nodes it needs. Layers
// 2 and up — at most n/(m(m−1)) + log_m n hashes, ≈ 2.7 B/entry at
// fanout 4 — are loaded by the first proof that needs them, in one read
// of the file's tail, and kept for the File's lifetime. They are
// validated before they are served (every node above layer 2 must hash
// its children and the top must be the committed root); damage is an
// ErrCorrupt naming the file and nothing is kept, so the next proof
// retries the load.
package mht

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
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

// boundaryGroups returns the node range a range proof covers at one
// layer for the span [l, h] of that layer: from the first node of l's
// group to the last node of h's group (the layer's last node when that
// group is the short one).
func boundaryGroups(count int64, m, l, h int64) (start, end int64) {
	start = (l / m) * m
	end = (h/m)*m + m - 1
	if end >= count {
		end = count - 1
	}
	return start, end
}

// DefaultWriteBufferBytes is the per-layer coalescing budget of a
// Writer and the default LeafStream window (~1 MiB of hashes per
// syscall).
const DefaultWriteBufferBytes = 1 << 20

// residentFrom is the lowest layer a File keeps in memory. Layer i holds
// ⌈n/m^i⌉ nodes, so from layer 2 up the resident share is at most
// n/(m(m−1)) + log_m n hashes; layer 1 alone would add n/m more.
const residentFrom = 2

// File reads a Merkle file produced by a Writer.
type File struct {
	f       vfs.File
	path    string
	m       int
	n       int64
	counts  []int64
	offsets []int64
	root    types.Hash // the committed root; zero when unknown

	// upper holds layers residentFrom and up in file order, published
	// once loaded and validated; proofs read it without a lock. loadMu
	// only serialises the loads, so concurrent first proofs read the
	// file's tail once.
	upper  atomic.Pointer[[]byte]
	loadMu sync.Mutex

	// hashReads is atomic: proof building runs on the engine's lock-free
	// read path, where any number of readers share one File.
	hashReads atomic.Int64
}

// Open is OpenFS on the real filesystem, with no committed root to check
// the resident layers' top against.
func Open(path string, n int64, m int) (*File, error) {
	return OpenFS(nil, path, n, m, types.Hash{})
}

// OpenFS opens a Merkle file on fsys (nil = the real filesystem) for n
// leaves with fanout m. root is the root the file was committed with (a
// run's .met root); the resident layers are checked against it when they
// load. The zero hash checks them for internal consistency only.
func OpenFS(fsys vfs.FS, path string, n int64, m int, root types.Hash) (*File, error) {
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
	return &File{f: f, path: path, m: m, n: n, counts: counts, offsets: LayerOffsets(counts), root: root}, nil
}

// Layers returns the number of MHT layers.
func (r *File) Layers() int { return len(r.counts) }

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

// HashReads returns how many reads NodeHash and ProveRange issued (IO
// accounting): one per NodeHash, at most one per on-disk layer of a
// proof, and one for the resident layers' load. LeafStream's windows are
// not counted.
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

// Close releases the file handle and the resident layers.
func (r *File) Close() error {
	r.upper.Store(nil)
	return r.f.Close()
}

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

// ProveRange builds a range proof for leaf positions [lo, hi]: siblings
// on layers 0 and 1 cost one read per layer, those above come from the
// resident layers (loaded by the first proof that needs them). Every
// sibling is copied into one array the proof owns.
func (r *File) ProveRange(lo, hi int64) (*RangeProof, error) {
	if lo < 0 || hi < lo || hi >= r.n {
		return nil, fmt.Errorf("mht: bad range [%d,%d] of %d leaves", lo, hi, r.n)
	}
	p := &RangeProof{N: r.n, M: r.m, Lo: lo, Hi: hi}
	layers := len(r.counts) - 1 // the root layer carries no siblings
	if layers == 0 {
		return p, nil
	}
	var upper []byte
	if layers > residentFrom {
		var err error
		if upper, err = r.resident(); err != nil {
			return nil, err
		}
	}
	m := int64(r.m)
	var total int64
	for layer, l, h := 0, lo, hi; layer < layers; layer, l, h = layer+1, l/m, h/m {
		start, end := boundaryGroups(r.counts[layer], m, l, h)
		total += l - start + end - h
	}
	siblings := make([]types.Hash, total)
	p.Left, p.Right = make([][]types.Hash, layers), make([][]types.Hash, layers)
	l, h := lo, hi
	for layer := 0; layer < layers; layer++ {
		start, end := boundaryGroups(r.counts[layer], m, l, h)
		nl, nr := l-start, end-h
		// Full slice expressions: appending to one layer's siblings must
		// not overwrite the next.
		left, right := siblings[:nl:nl], siblings[nl:nl+nr:nl+nr]
		siblings = siblings[nl+nr:]
		switch {
		case nl+nr == 0:
		case layer >= residentFrom:
			at := r.offsets[layer] - r.offsets[residentFrom]
			copyHashes(left, upper[(at+start)*types.HashSize:])
			copyHashes(right, upper[(at+h+1)*types.HashSize:])
		default:
			if err := r.readSiblings(layer, start, end, l, h, left, right); err != nil {
				return nil, err
			}
		}
		// An empty side stays nil, so proofs match the per-node reference
		// prover field for field.
		if nl > 0 {
			p.Left[layer] = left
		}
		if nr > 0 {
			p.Right[layer] = right
		}
		l /= m
		h /= m
	}
	return p, nil
}

// readBufs recycles the byte buffers on-disk sibling reads land in.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// readSiblings fills left and right — the nodes [start, l) and (h, end]
// of an on-disk layer — with one read of the nodes between the first and
// the last of them.
func (r *File) readSiblings(layer int, start, end, l, h int64, left, right []types.Hash) error {
	first, last := start, end
	if len(left) == 0 {
		first = h + 1
	}
	if len(right) == 0 {
		last = l - 1
	}
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	size := int(last-first+1) * types.HashSize
	if cap(*bp) < size {
		*bp = make([]byte, size)
	}
	buf := (*bp)[:size]
	if _, err := r.f.ReadAt(buf, (r.offsets[layer]+first)*types.HashSize); err != nil {
		return fmt.Errorf("mht: read layer %d nodes [%d,%d] of %s: %w", layer, first, last, r.path, err)
	}
	r.hashReads.Add(1)
	copyHashes(left, buf)
	if len(right) > 0 {
		copyHashes(right, buf[(h+1-first)*types.HashSize:])
	}
	return nil
}

// copyHashes fills dst from consecutive hash records of src.
func copyHashes(dst []types.Hash, src []byte) {
	for i := range dst {
		copy(dst[i][:], src[i*types.HashSize:])
	}
}

// resident returns layers residentFrom and up, loading them on first use.
// A failed load — an I/O error or a validation failure — publishes
// nothing, so the next proof tries again.
func (r *File) resident() ([]byte, error) {
	if u := r.upper.Load(); u != nil {
		return *u, nil
	}
	r.loadMu.Lock()
	defer r.loadMu.Unlock()
	if u := r.upper.Load(); u != nil {
		return *u, nil
	}
	base := r.offsets[residentFrom]
	buf := make([]byte, (TotalNodes(r.counts)-base)*types.HashSize)
	if _, err := r.f.ReadAt(buf, base*types.HashSize); err != nil {
		return nil, fmt.Errorf("mht: read layers %d and up of %s: %w", residentFrom, r.path, err)
	}
	r.hashReads.Add(1)
	if err := r.checkResident(buf); err != nil {
		return nil, err
	}
	r.upper.Store(&buf)
	return buf, nil
}

// checkResident validates loaded upper layers before they are served:
// every node above the lowest resident layer must be the hash of its
// children, and the top must be the committed root. A damaged node of
// any resident layer fails one of the two — its parent's check, or, for
// the root, the comparison with the committed one.
func (r *File) checkResident(buf []byte) error {
	base := r.offsets[residentFrom]
	m := int64(r.m)
	for layer := residentFrom + 1; layer < len(r.counts); layer++ {
		children := r.offsets[layer-1] - base
		for i := int64(0); i < r.counts[layer]; i++ {
			lo, hi := children+i*m, children+min((i+1)*m, r.counts[layer-1])
			at := (r.offsets[layer] - base + i) * types.HashSize
			sum := sha256.Sum256(buf[lo*types.HashSize : hi*types.HashSize])
			if !bytes.Equal(sum[:], buf[at:at+types.HashSize]) {
				return types.NewCorrupt(r.path, r.offsets[layer]+i,
					fmt.Sprintf("layer %d node %d is not the hash of its children", layer, i))
			}
		}
	}
	if top := buf[len(buf)-types.HashSize:]; r.root != (types.Hash{}) && !bytes.Equal(top, r.root[:]) {
		return types.NewCorrupt(r.path, TotalNodes(r.counts)-1, "root does not match the committed root")
	}
	return nil
}

// VerifyRange recomputes the root from the claimed leaf hashes of
// positions [proof.Lo, proof.Hi] and the proof's flanking siblings.
// It returns the reconstructed root; the caller compares it against the
// authenticated root (e.g. from root_hash_list / Hstate). Two byte
// buffers serve every layer: the covered nodes, and the parents hashed
// from them.
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
	m := int64(proof.M)
	layers := 0 // len(LayerCounts(N, M)) - 1, without the slice
	for c := proof.N; c > 1; c = (c + m - 1) / m {
		layers++
	}
	if len(proof.Left) != layers || len(proof.Right) != layers {
		return types.Hash{}, fmt.Errorf("mht: proof has %d layers, want %d", len(proof.Left), layers)
	}
	cur := make([]byte, 0, len(leaves)*types.HashSize)
	for i := range leaves {
		cur = append(cur, leaves[i][:]...)
	}
	// A layer's covered nodes are its siblings plus at most the leaves
	// (cur only shrinks going up), so span is sized once from what the
	// proof carries — never from its untrusted N or M.
	widest := 0
	for layer := range layers {
		widest = max(widest, len(proof.Left[layer])+len(proof.Right[layer]))
	}
	span := make([]byte, 0, len(cur)+widest*types.HashSize)
	count, l, h := proof.N, proof.Lo, proof.Hi
	for layer := 0; layer < layers; layer++ {
		start, end := boundaryGroups(count, m, l, h)
		left, right := proof.Left[layer], proof.Right[layer]
		if int64(len(left)) != l-start || int64(len(right)) != end-h {
			return types.Hash{}, fmt.Errorf("mht: layer %d sibling count mismatch", layer)
		}
		// The covered nodes [start, end]; start is group-aligned, so every
		// m nodes of span (the last group possibly short) hash to a parent.
		span = span[:0]
		for i := range left {
			span = append(span, left[i][:]...)
		}
		span = append(span, cur...)
		for i := range right {
			span = append(span, right[i][:]...)
		}
		cur = cur[:0]
		nodes := int64(len(span) / types.HashSize)
		for g := int64(0); g < nodes; g += m {
			parent := sha256.Sum256(span[g*types.HashSize : min(g+m, nodes)*types.HashSize])
			cur = append(cur, parent[:]...)
		}
		count = (count + m - 1) / m
		l /= m
		h /= m
	}
	if len(cur) != types.HashSize {
		return types.Hash{}, fmt.Errorf("mht: verification converged to %d nodes", len(cur)/types.HashSize)
	}
	return types.Hash(cur), nil
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
		start, end := boundaryGroups(counts[li], int64(m), l, h)
		p.Left = append(p.Left, append([]types.Hash(nil), layer[start:l]...))
		p.Right = append(p.Right, append([]types.Hash(nil), layer[h+1:end+1]...))
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
