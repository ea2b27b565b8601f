package run

import "cole/internal/types"

// ChunkedIterator wraps a sorted entry iterator so that a checkpoint
// callback runs between every quantum entries. It is the preemption
// point of long merges: the engine's callback asks the merge scheduler
// whether a higher-priority job (an L0 flush a commit is waiting on) is
// queued and, if so, hands the merge's worker slot over before pulling
// the next chunk. The wrapper yields exactly the source's entries in the
// source's order — chunking can only ever change *when* the entries are
// produced, never *what* is produced, so merged runs are byte-identical
// at any quantum.
type ChunkedIterator struct {
	src        Iterator
	quantum    int
	n          int
	checkpoint func()
}

// Chunked wraps src with a checkpoint every quantum entries. The
// checkpoint runs between entries — after the previous entry's LeafHash
// window has closed and before the next source advance — so callbacks
// may block for arbitrarily long without violating any iterator
// contract. A quantum < 1 or nil checkpoint returns src unwrapped.
func Chunked(src Iterator, quantum int, checkpoint func()) Iterator {
	if quantum < 1 || checkpoint == nil {
		return src
	}
	return &ChunkedIterator{src: src, quantum: quantum, checkpoint: checkpoint}
}

// Next implements Iterator, invoking the checkpoint at chunk boundaries.
func (c *ChunkedIterator) Next() (types.Entry, bool) {
	if c.n >= c.quantum {
		c.n = 0
		c.checkpoint()
	}
	e, ok := c.src.Next()
	if ok {
		c.n++
	}
	return e, ok
}

// Hashed implements HashedIterator by delegation: chunking preserves the
// source's leaf-hash passthrough (writeEntries type-asserts for
// it, and losing it would silently re-hash every merged entry).
func (c *ChunkedIterator) Hashed() bool {
	h, ok := c.src.(HashedIterator)
	return ok && h.Hashed()
}

// LeafHash delegates to the source's precomputed leaf hash for the entry
// most recently returned by Next.
func (c *ChunkedIterator) LeafHash() (types.Hash, error) {
	return c.src.(HashedIterator).LeafHash()
}

// Err surfaces the source's read failure (ErrIterator delegation).
func (c *ChunkedIterator) Err() error { return sourceErr(c.src) }
