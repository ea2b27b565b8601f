package crash

import (
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cole/internal/core"
	"cole/internal/reshard"
	"cole/internal/shard"
	"cole/internal/types"
	"cole/internal/vfs"
)

// buildSource lays down the deterministic workload as a flushed,
// cleanly-closed 1-shard store — the reshard sweep's fixed starting
// point. The directory it leaves is identical across rebuilds, but its
// operation count is not: the manifest writer skips a snapshot that a
// newer one replaced while it waited. So the sweep counts each fault
// from the operation at which the reshard starts; the reshard, an
// offline rewrite of an identical directory, takes the same operations
// every time.
func buildSource(t *testing.T, fs *vfs.MemFS) {
	t.Helper()
	s, err := shard.Open(core.Options{Dir: storeDir, Shards: 1, MemCapacity: 8, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for h := uint64(1); h <= blocks; h++ {
		if err := s.BeginBlock(h); err != nil {
			t.Fatal(err)
		}
		if err := s.PutBatch(batchFor(h)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReshardCrashSweep faults a 1→4 reshard at every filesystem
// operation of the rewrite, including the SHARDS generation flip, in two
// ways: a power loss (CrashAt, then Crash drops every unsynced byte) and
// an I/O error the process survives (FailAt: that one operation fails,
// the rest succeed). Either way it asserts the atomic-commit contract:
// the store reopens into exactly one complete layout — the old one up to
// the flip, the new one after — serves every account and verifying
// provenance proofs, and scrubs clean. An I/O error must also come back
// from Reshard (only the best-effort cleanup and the closing of source
// runs may swallow it), and every goroutine the reshard started must
// have stopped. While the old layout is live its digest must be the
// source store's, and after an I/O error a retried reshard with no
// fault must succeed and leave nothing but the live layout behind.
func TestReshardCrashSweep(t *testing.T) {
	for _, kind := range []string{"CrashAt", "FailAt"} {
		t.Run(kind, func(t *testing.T) { reshardFaultSweep(t, kind == "FailAt") })
	}
}

func reshardFaultSweep(t *testing.T, ioError bool) {
	want := finalState()
	srcRoot := func() types.Hash {
		fs := vfs.NewMem()
		buildSource(t, fs)
		s, err := shard.Open(core.Options{Dir: storeDir, MemCapacity: 8, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return s.RootDigest()
	}()

	// Golden pass: count the reshard's operations; the sweep faults at
	// every one of them.
	golden := vfs.NewMem()
	buildSource(t, golden)
	base := golden.OpCount()
	if _, err := reshard.Reshard(storeDir, 4, reshard.Options{FS: golden}); err != nil {
		t.Fatalf("golden reshard: %v", err)
	}
	span := golden.OpCount() - base
	if span < 50 {
		t.Fatalf("reshard spans only %d operations; the sweep needs a real rewrite", span)
	}

	stride := sweepStride(span)
	failed := 0
	for k := int64(1); k <= span; k += stride {
		fs := vfs.NewMem()
		buildSource(t, fs)
		n := fs.OpCount() + k       // the reshard's k-th operation
		g := runtime.NumGoroutine() // the source store is closed
		var rerr error
		if ioError {
			fs.FailAt(n, nil)
			_, rerr = reshard.Reshard(storeDir, 4, reshard.Options{FS: fs})
			fs.FailAt(0, nil)
			if rerr != nil {
				if !errors.Is(rerr, vfs.ErrInjected) {
					t.Fatalf("fault at op %d: reshard failed with %v, want the injected error", n, rerr)
				}
				failed++
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > g {
				if time.Now().After(deadline) {
					t.Fatalf("fault at op %d: %d goroutines after the reshard, %d before it", n, runtime.NumGoroutine(), g)
				}
				time.Sleep(time.Millisecond)
			}
		} else {
			fs.CrashAt(n)
			_, rerr = reshard.Reshard(storeDir, 4, reshard.Options{FS: fs})
			fs.Crash()
		}

		// Shards: 0 adopts whatever layout the SHARDS file pins — the
		// reopen itself must not need to know whether the flip committed.
		s, err := shard.Open(core.Options{Dir: storeDir, MemCapacity: 8, FS: fs})
		if err != nil {
			t.Fatalf("fault at op %d: reopen failed: %v", n, err)
		}
		switch s.Shards() {
		case 1:
			if rerr == nil {
				t.Fatalf("fault at op %d: reshard reported success but the old layout is live", n)
			}
			if got := s.RootDigest(); got != srcRoot {
				t.Fatalf("fault at op %d: the old layout is live with digest %s, want the source's %s", n, got, srcRoot)
			}
		case 4:
			// The flip committed; a post-flip fault only loses cleanup.
		default:
			t.Fatalf("fault at op %d: store reopened with %d shards (neither old nor new layout)", n, s.Shards())
		}
		if ck := s.CheckpointHeight(); ck != blocks {
			t.Fatalf("fault at op %d: checkpoint %d != %d (reshard must preserve the flushed height)", n, ck, blocks)
		}
		for i := 0; i < accounts; i++ {
			v, ok, gerr := s.Get(acct(i))
			if gerr != nil {
				t.Fatalf("fault at op %d: get account %d: %v", n, i, gerr)
			}
			if !ok || v != want[acct(i)] {
				t.Fatalf("fault at op %d: account %d serves the wrong value (layout=%d shards)", n, i, s.Shards())
			}
		}
		// Historical versions survive the rewrite too.
		for i := 0; i < accounts; i += 5 {
			hstate := s.RootDigest()
			vers, p, perr := s.Prov(acct(i), 1, blocks)
			if perr != nil {
				t.Fatalf("fault at op %d: prov query account %d: %v", n, i, perr)
			}
			if _, verr := p.Verify(hstate, acct(i), 1, blocks); verr != nil {
				t.Fatalf("fault at op %d: proof for account %d does not verify: %v", n, i, verr)
			}
			_ = vers
		}
		if err := s.Close(); err != nil {
			t.Fatalf("fault at op %d: close: %v", n, err)
		}
		findings, _, serr := shard.VerifyStore(fs, storeDir, false)
		if serr != nil {
			t.Fatalf("fault at op %d: scrub: %v", n, serr)
		}
		for _, f := range findings {
			t.Errorf("fault at op %d: scrub finding: %s: %s", n, f.File, f.Detail)
		}
		if t.Failed() {
			t.FailNow()
		}
		if ioError {
			retryAfterFault(t, k, want)
		}
	}
	if ioError && failed == 0 {
		t.Fatal("no injected fault failed the reshard")
	}
}

// retryAfterFault fails a fresh source's 1→4 reshard at its k-th
// operation, then retries it on the same filesystem with no fault and no
// reopen in between: the retry must succeed, serve every account, and
// leave no stale generation directory in the store root. Only if the
// faulted attempt had already committed may files of the root engine
// remain: its cleanup is best-effort, and the next open sweeps them. (The
// reshard's goroutines may interleave differently from the sweep's own
// attempt, so operation k need not be the same operation; it is a fault
// all the same.)
func retryAfterFault(t *testing.T, k int64, want map[types.Address]types.Value) {
	t.Helper()
	fs := vfs.NewMem()
	buildSource(t, fs)
	n := fs.OpCount() + k
	fs.FailAt(n, nil)
	_, _ = reshard.Reshard(storeDir, 4, reshard.Options{FS: fs})
	fs.FailAt(0, nil)
	_, faultedGen, _, err := shard.PersistedLayout(fs, storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reshard.Reshard(storeDir, 4, reshard.Options{FS: fs}); err != nil {
		t.Fatalf("fault at op %d: retried reshard: %v", n, err)
	}
	_, gen, _, err := shard.PersistedLayout(fs, storeDir)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := fs.ReadDir(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		name := de.Name()
		if name == "SHARDS" || name == filepath.Base(shard.GenDir(storeDir, gen)) || (faultedGen > 0 && !de.IsDir()) {
			continue
		}
		t.Errorf("fault at op %d: retried reshard left stale entry %q in the store root", n, name)
	}
	s, err := shard.Open(core.Options{Dir: storeDir, MemCapacity: 8, FS: fs})
	if err != nil {
		t.Fatalf("fault at op %d: reopen after the retry: %v", n, err)
	}
	defer s.Close()
	if s.Shards() != 4 {
		t.Fatalf("fault at op %d: %d shards after the retry, want 4", n, s.Shards())
	}
	for i := 0; i < accounts; i++ {
		if v, ok, err := s.Get(acct(i)); err != nil || !ok || v != want[acct(i)] {
			t.Fatalf("fault at op %d: after the retry account %d serves ok=%v err=%v or a wrong value", n, i, ok, err)
		}
	}
}
