package core

import (
	"math/rand"
	"sync"
	"testing"

	"cole/internal/types"
)

// TestConcurrentReadsDuringWrites hammers Get/GetAt/ProvQuery and pinned
// Snapshots from multiple goroutines while the write path runs blocks and
// merges fire (run under -race in CI), on both COLE (sync merge) and
// COLE* (async merge). Readers must always observe a state consistent
// with some published view: every value returned was actually written,
// every provenance proof verifies against the root of the view that
// produced it, and after the readers quiesce every retired run file has
// been reclaimed (no leaks, no use-after-delete).
func TestConcurrentReadsDuringWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("long concurrency soak; the CI -race job runs it without -short")
	}
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) { concurrentReadSoak(t, async) })
	}
}

func concurrentReadSoak(t *testing.T, async bool) {
	opts := testOpts(t, async)
	opts.MemCapacity = 64
	e := openEngine(t, opts)

	const addrSpace = 30
	var (
		mu      sync.Mutex
		written = make(map[types.Address]map[types.Value]bool)
	)
	record := func(a types.Address, v types.Value) {
		mu.Lock()
		if written[a] == nil {
			written[a] = map[types.Value]bool{}
		}
		written[a][v] = true
		mu.Unlock()
	}
	valid := func(a types.Address, v types.Value) bool {
		mu.Lock()
		defer mu.Unlock()
		return written[a][v]
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				addr := types.AddressFromUint64(uint64(r.Intn(addrSpace)))
				switch r.Intn(4) {
				case 0:
					v, ok, err := e.Get(addr)
					if err != nil {
						errs <- err
						return
					}
					if ok && !valid(addr, v) {
						errs <- errPhantom
						return
					}
				case 1:
					if _, _, _, err := e.GetAt(addr, uint64(r.Intn(300)+1)); err != nil {
						errs <- err
						return
					}
				case 2:
					// Pin a snapshot and check its reads and proofs agree
					// with the one published state it froze.
					snap := e.Snapshot()
					h := snap.Height()
					v, ok, err := snap.Get(addr)
					if err != nil {
						snap.Release()
						errs <- err
						return
					}
					if ok && !valid(addr, v) {
						snap.Release()
						errs <- errPhantom
						return
					}
					if h >= 2 {
						versions, proof, err := snap.ProvQuery(addr, 1, h)
						if err != nil {
							snap.Release()
							errs <- err
							return
						}
						if _, err := VerifyProv(snap.Root(), addr, 1, h, proof); err != nil {
							snap.Release()
							errs <- err
							return
						}
						// Within one snapshot, Get must agree with the
						// newest provenance version.
						if ok && len(versions) > 0 && versions[0].Value != v {
							snap.Release()
							errs <- errPhantom
							return
						}
					}
					snap.Release()
				default:
					h := e.Height()
					if h < 2 {
						continue
					}
					lo := uint64(r.Intn(int(h))) + 1
					hi := lo + uint64(r.Intn(20))
					if hi > h {
						hi = h
					}
					if _, _, err := e.ProvQuery(addr, lo, hi); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(g + 1))
	}

	// Writer: 300 blocks of 5 puts.
	r := rand.New(rand.NewSource(0))
	for b := uint64(1); b <= 300; b++ {
		batch := make([]types.Update, 0, 5)
		for p := 0; p < 5; p++ {
			a := types.AddressFromUint64(uint64(r.Intn(addrSpace)))
			v := types.ValueFromUint64(r.Uint64())
			record(a, v) // record before the commit: readers may see it instantly
			batch = append(batch, types.Update{Addr: a, Value: v})
		}
		if _, err := e.CommitBlock(b, batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// With every view released, only the files of live (manifest) runs may
	// remain: retired runs must have been reclaimed on release.
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	onDisk := runFilesOnDisk(t, opts.Dir)
	for f := range onDisk {
		if !currentlyReferenced(t, e, f) {
			t.Fatalf("leaked run file %s: on disk but not in the structure", f)
		}
	}
}

var errPhantom = &phantomError{}

type phantomError struct{}

func (*phantomError) Error() string { return "reader observed a value never written" }
