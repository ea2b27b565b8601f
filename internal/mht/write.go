package mht

import (
	"fmt"
	"os"

	"cole/internal/types"
	"cole/internal/vfs"
)

// Writer streams the n leaf hashes of a Merkle file in position order and
// cascades parents exactly as Algorithm 4 does: each layer keeps the
// pending children of its next parent and a coalescing buffer, flushed at
// the layer's precomputed file offset, so memory is O(m·log_m n) whatever
// n is.
type Writer struct {
	fs        vfs.FS
	f         vfs.File
	path      string
	m         int
	counts    []int64
	offsets   []int64
	bufHashes int
	pend      [][]types.Hash // children of the next parent, per layer
	bufs      [][]byte       // coalesced unwritten node bytes, per layer
	next      []int64        // node index where bufs[i] begins
	added     int64
	root      types.Hash
	done      bool
}

// Create creates a Merkle file on fsys (nil = the real filesystem) for n
// leaves with fanout m ≥ 2, pre-sized for every layer: each layer is
// written at its own offset as its buffer fills, not in file order.
// bufBytes is the per-layer write-coalescing budget (0 selects
// DefaultWriteBufferBytes; small values give per-node write
// granularity). The file bytes and root are identical for every buffer
// size.
func Create(fsys vfs.FS, path string, n int64, m int, bufBytes int) (*Writer, error) {
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
	return &Writer{
		fs:        fsys,
		f:         f,
		path:      path,
		m:         m,
		counts:    counts,
		offsets:   LayerOffsets(counts),
		bufHashes: max(bufBytes/types.HashSize, 1),
		pend:      make([][]types.Hash, len(counts)),
		bufs:      make([][]byte, len(counts)),
		next:      make([]int64, len(counts)),
	}, nil
}

// CreateWriter is Create on the real filesystem with the default write
// buffer.
func CreateWriter(path string, n int64, m int) (*Writer, error) {
	return Create(nil, path, n, m, 0)
}

// Add appends the next leaf hash.
func (w *Writer) Add(leaf types.Hash) error {
	if w.done {
		return fmt.Errorf("mht: add after Finish on %s", w.path)
	}
	if w.added >= w.counts[0] {
		return fmt.Errorf("mht: more than %d leaves added to %s", w.counts[0], w.path)
	}
	w.added++
	return w.node(0, leaf)
}

// node records the next hash of layer i and cascades a parent when it
// completes a group of m children.
func (w *Writer) node(i int, h types.Hash) error {
	if err := w.stage(i, h); err != nil {
		return err
	}
	if i == len(w.counts)-1 {
		w.root = h
		return nil
	}
	w.pend[i] = append(w.pend[i], h)
	if len(w.pend[i]) < w.m {
		return nil
	}
	return w.fold(i)
}

// fold hashes layer i's pending children into their parent.
func (w *Writer) fold(i int) error {
	parent := types.HashConcat(w.pend[i]...)
	w.pend[i] = w.pend[i][:0]
	return w.node(i+1, parent)
}

// stage buffers the node bytes for the layer's next sequential write.
func (w *Writer) stage(i int, h types.Hash) error {
	w.bufs[i] = append(w.bufs[i], h[:]...)
	if len(w.bufs[i]) >= w.bufHashes*types.HashSize {
		return w.flushLayer(i)
	}
	return nil
}

func (w *Writer) flushLayer(i int) error {
	if len(w.bufs[i]) == 0 {
		return nil
	}
	if _, err := w.f.WriteAt(w.bufs[i], (w.offsets[i]+w.next[i])*types.HashSize); err != nil {
		return err
	}
	w.next[i] += int64(len(w.bufs[i]) / types.HashSize)
	w.bufs[i] = w.bufs[i][:0]
	return nil
}

// Finish folds the short trailing groups (Definition 2 allows a layer's
// last group fewer than m nodes), writes out every layer, syncs and
// closes the file, and returns the root. A tree short of its n leaves is
// an error, and on every error the file is removed.
func (w *Writer) Finish() (types.Hash, error) {
	if w.done {
		return types.Hash{}, fmt.Errorf("mht: Finish after Finish on %s", w.path)
	}
	if err := w.finish(); err != nil {
		w.Abort()
		return types.Hash{}, err
	}
	w.done = true
	if err := w.f.Sync(); err != nil {
		_ = w.f.Close()
		_ = w.fs.Remove(w.path)
		return types.Hash{}, err
	}
	return w.root, w.f.Close()
}

func (w *Writer) finish() error {
	if w.added != w.counts[0] {
		return fmt.Errorf("mht: %s got %d of %d leaves", w.path, w.added, w.counts[0])
	}
	for i := 0; i < len(w.counts)-1; i++ {
		if len(w.pend[i]) > 0 {
			if err := w.fold(i); err != nil {
				return err
			}
		}
	}
	for i := range w.bufs {
		if err := w.flushLayer(i); err != nil {
			return err
		}
		if w.next[i] != w.counts[i] {
			return fmt.Errorf("mht: layer %d of %s wrote %d of %d nodes", i, w.path, w.next[i], w.counts[i])
		}
	}
	return nil
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
