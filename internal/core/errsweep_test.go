package core

import (
	"errors"
	"testing"

	"cole/internal/types"
	"cole/internal/vfs"
)

// sweepBatch is block h of the I/O-error sweep: keyed to the height so a
// replay regenerates byte-identical blocks.
func sweepBatch(h uint64) []types.Update {
	ups := make([]types.Update, 32)
	for i := range ups {
		ups[i] = types.Update{
			Addr:  types.AddressFromUint64((h*31 + uint64(i)*17) % 200),
			Value: types.ValueFromUint64(h*1000 + uint64(i)),
		}
	}
	return ups
}

func sweepCommit(e *Engine, h uint64) (types.Hash, error) {
	if err := e.BeginBlock(h); err != nil {
		return types.Hash{}, err
	}
	if err := e.PutBatch(sweepBatch(h)); err != nil {
		return types.Hash{}, err
	}
	return e.Commit()
}

// TestMergeIOErrorSweep injects a non-crash I/O error (MemFS.FailAt) at
// every filesystem operation of the first commit whose cascade runs a
// level merge (one build, one partition of the key space), including the
// operations of the manifest write that lands after Commit returns. A
// failing Commit must report the injected error itself — a read error
// from a source run is not to be masked as the count mismatch it also
// causes — and must publish nothing. A fault that hits the manifest
// writer leaves the commit whole (it returned the golden digest) but
// undurable: the checkpoint does not advance, and the next Commit,
// FlushAll and Close each return the injected error. Either way, after
// Close and reopen, replay from the checkpoint reproduces the golden
// digests of every block up to and including the merging one.
func TestMergeIOErrorSweep(t *testing.T) {
	t.Run("partitions=1", func(t *testing.T) {
		open := func(fs *vfs.MemFS) *Engine {
			e, err := Open(Options{Dir: "store", MemCapacity: 256, SizeRatio: 2, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		// drain lands every handed-over manifest, so that OpCount covers
		// the writer's operations and an armed fault hits the merging
		// block's operations only.
		drain := func(e *Engine) {
			if err := e.drainManifests(); err != nil {
				t.Fatal(err)
			}
		}

		// Golden run: find the merging block and its operation window.
		fs := vfs.NewMem()
		e := open(fs)
		var roots []types.Hash // roots[h-1] is block h's digest
		var opsBefore int64
		for h := uint64(1); e.Stats().Merges == 0; h++ {
			if h > 100 {
				t.Fatal("no level merge within 100 blocks")
			}
			drain(e)
			opsBefore = fs.OpCount()
			root, err := sweepCommit(e, h)
			if err != nil {
				t.Fatal(err)
			}
			roots = append(roots, root)
		}
		drain(e)
		opsAfter := fs.OpCount()
		mergeBlock := uint64(len(roots))
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		failed, writerFailed := 0, 0
		for n := opsBefore + 1; n <= opsAfter; n++ {
			fs := vfs.NewMem()
			e := open(fs)
			for h := uint64(1); h < mergeBlock; h++ {
				if _, err := sweepCommit(e, h); err != nil {
					t.Fatalf("op %d: block %d: %v", n, h, err)
				}
			}
			drain(e)
			ckptBefore := e.CheckpointHeight()
			fs.FailAt(n, nil)
			root, err := sweepCommit(e, mergeBlock)
			werr := e.drainManifests()
			fs.FailAt(0, nil) // disarm if the block took fewer operations this time
			switch {
			case err == nil && werr == nil:
				// The fault hit an operation whose failure is tolerated
				// (an unlink of a retired run): the commit must be whole.
				if root != roots[mergeBlock-1] {
					t.Fatalf("op %d: commit succeeded with a wrong digest", n)
				}
			case err == nil:
				writerFailed++
				if !errors.Is(werr, vfs.ErrInjected) {
					t.Fatalf("op %d: manifest write failed with %v, want the injected I/O error", n, werr)
				}
				if root != roots[mergeBlock-1] {
					t.Fatalf("op %d: commit returned a wrong digest", n)
				}
				if got := e.CheckpointHeight(); got != ckptBefore {
					t.Fatalf("op %d: checkpoint advanced %d -> %d although its manifest failed", n, ckptBefore, got)
				}
				if _, err := sweepCommit(e, mergeBlock+1); !errors.Is(err, vfs.ErrInjected) {
					t.Fatalf("op %d: the next Commit returned %v, want the injected I/O error", n, err)
				}
				if err := e.FlushAll(); !errors.Is(err, vfs.ErrInjected) {
					t.Fatalf("op %d: FlushAll returned %v, want the injected I/O error", n, err)
				}
				if err := e.Close(); !errors.Is(err, vfs.ErrInjected) {
					t.Fatalf("op %d: Close returned %v, want the injected I/O error", n, err)
				}
				if got := e.CheckpointHeight(); got != ckptBefore {
					t.Fatalf("op %d: checkpoint advanced %d -> %d after the failed manifest", n, ckptBefore, got)
				}
			case !errors.Is(err, vfs.ErrInjected):
				t.Fatalf("op %d: commit failed with %v, want the injected I/O error", n, err)
			default:
				failed++
				if got := e.ViewRoot(); got != roots[mergeBlock-2] {
					t.Fatalf("op %d: failed commit changed the published view", n)
				}
			}
			_ = e.Close() // the engine's state after a failed commit is only good for closing

			e = open(fs)
			ckpt := e.CheckpointHeight()
			if ckpt > mergeBlock {
				t.Fatalf("op %d: checkpoint %d beyond the chain", n, ckpt)
			}
			for h := ckpt + 1; h <= mergeBlock; h++ {
				root, err := sweepCommit(e, h)
				if err != nil {
					t.Fatalf("op %d: replay block %d: %v", n, h, err)
				}
				if root != roots[h-1] {
					t.Fatalf("op %d: replayed block %d diverges from the golden digest", n, h)
				}
			}
			if e.RootDigest() != roots[mergeBlock-1] {
				t.Fatalf("op %d: recovered digest differs from the golden one", n)
			}
			if err := e.Close(); err != nil {
				t.Fatalf("op %d: close after recovery: %v", n, err)
			}
		}
		if failed == 0 {
			t.Fatal("no injected fault failed a commit")
		}
		if writerFailed == 0 {
			t.Fatal("no injected fault failed the manifest writer")
		}
		t.Logf("block %d: %d operations swept, %d failed the commit, %d the manifest writer", mergeBlock, opsAfter-opsBefore, failed, writerFailed)
	})
}
