package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cole/internal/types"
)

// driveHeavyBlocks commits n deterministic blocks of 32 updates over a
// 200-address population and flushes. The heavier per-block volume (vs
// driveBlocks) makes level merges span multiple value pages.
func driveHeavyBlocks(t *testing.T, e *Engine, n int) {
	t.Helper()
	start := int(e.Height())
	for b := start + 1; b <= start+n; b++ {
		batch := make([]types.Update, 32)
		for i := range batch {
			addr := types.AddressFromUint64(uint64((b*31 + i*17) % 200))
			batch[i] = types.Update{Addr: addr, Value: types.ValueFromUint64(uint64(b*1000 + i))}
		}
		if _, err := e.CommitBlock(uint64(b), batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeUnderConcurrentSnapshots is the race soak for level merges: an
// async engine runs a heavy block workload while reader goroutines
// continuously pin snapshots, k-way iterate them, and issue point reads.
// Background merges read their source runs and hand them to retirement
// while the readers' views still pin them, so this exercises the build's
// Merkle helper, merge commits and retirement under concurrent views
// (run under -race in CI).
func TestMergeUnderConcurrentSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("long concurrency soak; the CI -race job runs it without -short")
	}
	opts := testOpts(t, true)
	opts.MemCapacity = 256
	e := openEngine(t, opts)

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

	driveHeavyBlocks(t, e, 120)
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
