package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"cole/internal/merge"
	"cole/internal/types"
)

// drivePartitionBlocks commits n deterministic blocks of 32 updates over
// a 200-address population and flushes. The heavier per-block volume
// (vs driveBlocks) makes level merges span multiple value pages, so
// partitioned builds actually cut the key space instead of collapsing to
// a single span.
func drivePartitionBlocks(t *testing.T, e *Engine, n int) []types.Hash {
	t.Helper()
	var roots []types.Hash
	start := int(e.Height())
	for b := start + 1; b <= start+n; b++ {
		if err := e.BeginBlock(uint64(b)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			addr := types.AddressFromUint64(uint64((b*31 + i*17) % 200))
			if err := e.Put(addr, types.ValueFromUint64(uint64(b*1000+i))); err != nil {
				t.Fatal(err)
			}
		}
		root, err := e.Commit()
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, root)
	}
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return roots
}

// TestMergeWidth pins the width rule: one key-range span per
// autoPartitionBytes of merged volume, at least one, and never more spans
// than the merge pool has workers.
func TestMergeWidth(t *testing.T) {
	// span is the fewest entries whose volume reaches autoPartitionBytes.
	const span = (autoPartitionBytes + types.EntrySize - 1) / types.EntrySize
	for _, c := range []struct {
		count   int64
		workers int
		want    int
	}{
		{0, 4, 1},
		{1, 4, 1},
		{span - 1, 4, 1}, // just below 8 MiB
		{span, 4, 1},
		{span + span/2, 4, 1},
		{2 * span, 4, 2},
		{3 * span, 4, 3},
		{4 * span, 4, 4},
		{5 * span, 4, 4}, // capped at the pool
		{5 * span, 8, 5},
		{64 * span, 8, 8},
		{64 * span, 1, 1},
	} {
		e := &Engine{sched: merge.New(c.workers)}
		if got := e.mergeWidth(c.count); got != c.want {
			t.Errorf("mergeWidth(%d entries = %d B) on %d workers = %d, want %d",
				c.count, c.count*types.EntrySize, c.workers, got, c.want)
		}
	}
}

// TestEnginePartitionedGoldenVsSequential runs identical block sequences
// through engines that differ only in merge width (one span, whose
// learned index is fed inline, vs fixed widths, whose index is read back
// from the value file, vs the volume rule), across sync and async
// cascades: every per-block Hstate and every on-disk run file must be
// byte-identical.
// Partitioning a merge is a wall-time optimisation, never a format or
// digest change.
func TestEnginePartitionedGoldenVsSequential(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			const blocks = 96 // ~3k entries: deep cascades with multi-page merges

			seqOpts := testOpts(t, async)
			seqOpts.MemCapacity = 256
			seq := openEngine(t, seqOpts)
			seq.fixedMergeWidth = 1
			seqRoots := drivePartitionBlocks(t, seq, blocks)
			seqFiles := runFileBytes(t, seqOpts.Dir)
			if len(seqFiles) == 0 {
				t.Fatal("sequential engine wrote no run files")
			}

			for _, w := range []int{0, 2, 4, 8} {
				t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
					parOpts := testOpts(t, async)
					parOpts.MemCapacity = 256
					par := openEngine(t, parOpts)
					par.fixedMergeWidth = w
					parRoots := drivePartitionBlocks(t, par, blocks)
					for b := range seqRoots {
						if seqRoots[b] != parRoots[b] {
							t.Fatalf("block %d: Hstate differs between sequential and %d-way partitioned merges", b+1, w)
						}
					}
					parFiles := runFileBytes(t, parOpts.Dir)
					if len(parFiles) != len(seqFiles) {
						t.Fatalf("run file sets differ: %d vs %d", len(seqFiles), len(parFiles))
					}
					for name, want := range seqFiles {
						got, ok := parFiles[name]
						if !ok {
							t.Fatalf("partitioned store is missing %s", name)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s differs between sequential and %d-way partitioned merges", name, w)
						}
					}
				})
			}
		})
	}
}

// TestPartitionedMergeUnderConcurrentSnapshots is the race soak for
// partitioned merges: an async engine with 4-way merges runs a heavy
// block workload while reader goroutines continuously pin snapshots,
// k-way iterate them, and issue point reads. Partition workers share the
// merge pool with nothing else pinning their inputs besides the cascade
// itself, so this exercises fan-out, stitching, and retirement under
// concurrent views (run under -race in CI).
func TestPartitionedMergeUnderConcurrentSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("long concurrency soak; the CI -race job runs it without -short")
	}
	opts := testOpts(t, true)
	opts.MemCapacity = 256
	e := openEngine(t, opts)
	e.fixedMergeWidth = 4

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := e.Snapshot()
				it := s.Entries()
				var n, total int64
				var prev types.CompoundKey
				for {
					ent, ok := it.Next()
					if !ok {
						break
					}
					if n > 0 && !prev.Less(ent.Key) {
						errs <- fmt.Errorf("snapshot iteration out of order at entry %d", n)
						s.Release()
						return
					}
					prev = ent.Key
					n++
				}
				if err := it.Err(); err != nil {
					errs <- fmt.Errorf("snapshot scan: %w", err)
					s.Release()
					return
				}
				if total = s.EntryCount(); n != total {
					errs <- fmt.Errorf("snapshot yielded %d entries, EntryCount says %d", n, total)
					s.Release()
					return
				}
				s.Release()
				if _, _, err := e.Get(types.AddressFromUint64(uint64((g*37 + i) % 200))); err != nil {
					errs <- fmt.Errorf("get during merge: %w", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(g)
	}

	drivePartitionBlocks(t, e, 120)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	if st := e.Stats(); st.Merges == 0 {
		t.Fatal("soak drove no merges")
	}
}
