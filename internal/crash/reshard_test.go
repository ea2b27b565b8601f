package crash

import (
	"testing"

	"cole/internal/core"
	"cole/internal/reshard"
	"cole/internal/shard"
	"cole/internal/vfs"
)

// buildSource lays down the deterministic workload as a flushed,
// cleanly-closed 1-shard store — the reshard sweep's fixed starting
// point. Sync mode keeps the operation count identical across rebuilds,
// so a crash index recorded against the golden rebuild lands on the
// same reshard-phase operation in every sweep iteration.
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

// TestReshardCrashSweep crashes a 1→4 reshard at every filesystem
// operation of the rewrite, including the SHARDS generation flip, and
// asserts the atomic-commit contract: the store reopens into exactly
// one complete layout — the old one up to the flip, the new one after —
// serves every account correctly, and scrubs clean.
func TestReshardCrashSweep(t *testing.T) {
	want := finalState()

	// Golden pass: fix the operation index where the reshard starts and
	// where it ends; the sweep crashes at every index in between.
	golden := vfs.NewMem()
	buildSource(t, golden)
	base := golden.OpCount()
	if _, err := reshard.Reshard(storeDir, 4, reshard.Options{FS: golden}); err != nil {
		t.Fatalf("golden reshard: %v", err)
	}
	total := golden.OpCount()
	if total-base < 50 {
		t.Fatalf("reshard spans only %d operations; the sweep needs a real rewrite", total-base)
	}

	stride := sweepStride(total - base)
	for n := base + 1; n <= total; n += stride {
		fs := vfs.NewMem()
		buildSource(t, fs)
		if got := fs.OpCount(); got != base {
			t.Fatalf("source rebuild is not deterministic: %d ops vs golden %d", got, base)
		}
		fs.CrashAt(n)
		_, rerr := reshard.Reshard(storeDir, 4, reshard.Options{FS: fs})
		fs.Crash()

		// Shards: 0 adopts whatever layout the SHARDS file pins — the
		// reopen itself must not need to know whether the flip committed.
		s, err := shard.Open(core.Options{Dir: storeDir, MemCapacity: 8, FS: fs})
		if err != nil {
			t.Fatalf("crash at op %d: reopen failed: %v", n, err)
		}
		switch s.Shards() {
		case 1:
			if rerr == nil {
				t.Fatalf("crash at op %d: reshard reported success but the old layout is live", n)
			}
		case 4:
			// The flip committed; a post-flip crash only loses cleanup.
		default:
			t.Fatalf("crash at op %d: store reopened with %d shards (neither old nor new layout)", n, s.Shards())
		}
		if ck := s.CheckpointHeight(); ck != blocks {
			t.Fatalf("crash at op %d: checkpoint %d != %d (reshard must preserve the flushed height)", n, ck, blocks)
		}
		for i := 0; i < accounts; i++ {
			v, ok, gerr := s.Get(acct(i))
			if gerr != nil {
				t.Fatalf("crash at op %d: get account %d: %v", n, i, gerr)
			}
			if !ok || v != want[acct(i)] {
				t.Fatalf("crash at op %d: account %d serves the wrong value (layout=%d shards)", n, i, s.Shards())
			}
		}
		// Historical versions survive the rewrite too.
		for i := 0; i < accounts; i += 5 {
			hstate := s.RootDigest()
			vers, p, perr := s.Prov(acct(i), 1, blocks)
			if perr != nil {
				t.Fatalf("crash at op %d: prov query account %d: %v", n, i, perr)
			}
			if _, verr := p.Verify(hstate, acct(i), 1, blocks); verr != nil {
				t.Fatalf("crash at op %d: proof for account %d does not verify: %v", n, i, verr)
			}
			_ = vers
		}
		if err := s.Close(); err != nil {
			t.Fatalf("crash at op %d: close: %v", n, err)
		}
		findings, _, serr := shard.VerifyStore(fs, storeDir, false)
		if serr != nil {
			t.Fatalf("crash at op %d: scrub: %v", n, serr)
		}
		for _, f := range findings {
			t.Errorf("crash at op %d: scrub finding: %s: %s", n, f.File, f.Detail)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}
