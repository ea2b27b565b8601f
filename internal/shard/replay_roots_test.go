package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cole/internal/core"
	"cole/internal/types"
)

// addrsOwnedBy returns `count` deterministic addresses that route to the
// given shard under an n-way split.
func addrsOwnedBy(n, shardIdx, count int) []types.Address {
	var out []types.Address
	for i := 0; len(out) < count; i++ {
		a := types.AddressFromString(fmt.Sprintf("owned-%d-%d-%d", n, shardIdx, i))
		if ShardOf(a, n) == shardIdx {
			out = append(out, a)
		}
	}
	return out
}

// TestReplayReproducesHistoricalDigests is the historical-roots
// acceptance test: a 2-shard store with deliberately uneven write
// routing (so shard checkpoints diverge) crashes and replays; every
// replayed Commit must return the exact digest originally published at
// that height, because the skipped hot shard contributes its persisted
// historical root instead of its current one.
func TestReplayReproducesHistoricalDigests(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			const n, blocks = 2, 40
			hot := addrsOwnedBy(n, 0, 6)  // 6 writes/block → cascades often
			cold := addrsOwnedBy(n, 1, 4) // 1 write/block → cascades rarely
			opts := core.Options{Dir: t.TempDir(), Shards: n, MemCapacity: 16, AsyncMerge: async}

			writeBlock := func(s *Store, h uint64) types.Hash {
				t.Helper()
				if err := s.BeginBlock(h); err != nil {
					t.Fatalf("begin %d: %v", h, err)
				}
				for w, a := range hot {
					if err := s.Put(a, types.ValueFromUint64(h*100+uint64(w))); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Put(cold[int(h)%len(cold)], types.ValueFromUint64(h)); err != nil {
					t.Fatal(err)
				}
				root, err := s.Commit()
				if err != nil {
					t.Fatalf("commit %d: %v", h, err)
				}
				return root
			}

			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			headers := make([]types.Hash, blocks+1)
			for h := uint64(1); h <= blocks; h++ {
				headers[h] = writeBlock(s, h)
			}
			// Crash: close without FlushAll, losing both L0s.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Per-shard manifest geometry, read before the reopen: a shard
			// is skipped while the replayed height is ≤ its reopen height
			// (= manifest Replay) and contributes its exact historical
			// root. An *active* shard's own replayed roots are exact
			// everywhere in sync mode; with asynchronous merge they only
			// converge from its manifest Height (the re-triggered cascade)
			// onward, because the reopened structure is ahead of the data
			// horizon — an engine property independent of this test's
			// skipped-shard substitution.
			replayFrom := make([]uint64, n)
			convergedFrom := make([]uint64, n)
			for i := 0; i < n; i++ {
				st, err := core.ReadStoreState(nil, EngineDir(opts.Dir, 0, n, i))
				if err != nil {
					t.Fatal(err)
				}
				replayFrom[i] = st.Replay
				convergedFrom[i] = st.Replay
				if async {
					convergedFrom[i] = st.Height
				}
			}
			mustMatch := func(h uint64) bool {
				for i := 0; i < n; i++ {
					skipped := h <= replayFrom[i]
					if !skipped && h < convergedFrom[i] {
						return false
					}
				}
				return true
			}

			s2, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			ckpt := s2.CheckpointHeight()
			tip := s2.Height()
			if ckpt >= tip {
				t.Fatalf("checkpoints not uneven enough (ckpt=%d tip=%d); the test needs skipped shards", ckpt, tip)
			}
			// The interesting window — a height where the hot shard is
			// skipped while the cold shard has converged — must exist, or
			// the test proves nothing about historical-root substitution.
			sawSubstituted := false
			for h := ckpt + 1; h <= blocks; h++ {
				if mustMatch(h) && (h <= replayFrom[0] || h <= replayFrom[1]) {
					sawSubstituted = true
				}
			}
			if !sawSubstituted {
				t.Fatalf("workload produced no height with a skipped shard and a converged sibling (replayFrom=%v convergedFrom=%v)", replayFrom, convergedFrom)
			}
			for h := ckpt + 1; h <= blocks; h++ {
				got := writeBlock(s2, h)
				if !mustMatch(h) {
					continue
				}
				if got != headers[h] {
					t.Fatalf("replayed digest at height %d diverges from the published header (skipped-shard root not historical?)", h)
				}
			}
			// And the store keeps operating normally past the replay.
			for h := uint64(blocks + 1); h <= blocks+5; h++ {
				writeBlock(s2, h)
			}
		})
	}
}

// TestReplayHeadersMatchFullChain is the end-to-end variant over the
// uniform workload used elsewhere: replay after a crash reproduces every
// lost header, not just the final digest.
func TestReplayHeadersMatchFullChain(t *testing.T) {
	dir := t.TempDir()
	const shards, blocks, writes, accounts = 3, 60, 15, 40
	s := openTest(t, dir, shards, false)
	roots := runBlocks(t, s, 0, blocks, writes, accounts)
	if err := s.Close(); err != nil { // crash: no FlushAll
		t.Fatal(err)
	}
	s2 := openTest(t, dir, shards, false)
	defer s2.Close()
	ckpt := s2.CheckpointHeight()
	if ckpt >= blocks {
		t.Fatalf("nothing to replay (ckpt=%d)", ckpt)
	}
	replayed := runBlocks(t, s2, ckpt, blocks-int(ckpt), writes, accounts)
	for i, got := range replayed {
		h := int(ckpt) + i + 1
		if got != roots[h-1] {
			t.Fatalf("replayed header at height %d diverges from the original", h)
		}
	}
}

// TestShardManifestPersistsRootWindow: a shard's MANIFEST carries exactly
// the roots replay can ask it for — the heights above the lowest durable
// checkpoint of its peers, up to its own replay height — with the
// digests the shard committed there.
func TestShardManifestPersistsRootWindow(t *testing.T) {
	const n = 2
	dir := t.TempDir()
	opts := core.Options{Dir: dir, Shards: n, MemCapacity: 16}
	hot := addrsOwnedBy(n, 0, 6)
	cold := addrsOwnedBy(n, 1, 1)
	drive := func(s *Store, from, to uint64, coldWrites bool) {
		t.Helper()
		for h := from; h <= to; h++ {
			if err := s.BeginBlock(h); err != nil {
				t.Fatal(err)
			}
			for w, a := range hot {
				if err := s.Put(a, types.ValueFromUint64(h*100+uint64(w))); err != nil {
					t.Fatal(err)
				}
			}
			if coldWrites {
				if err := s.Put(cold[0], types.ValueFromUint64(h)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Both shards checkpoint at 20, durably; then only the hot one moves.
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	drive(s, 1, 20, true)
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	drive(s, 21, 80, false)
	committed := make(map[uint64]types.Hash)
	for h := uint64(21); h <= 80; h++ {
		r, ok := s.engines[0].HistoricalRoot(h)
		if !ok {
			t.Fatalf("hot shard has no root for height %d", h)
		}
		committed[h] = r
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var m struct {
		Replay uint64 `json:"replay"`
		Roots  []struct {
			H uint64 `json:"h"`
			R string `json:"r"`
		} `json:"roots"`
	}
	raw, err := os.ReadFile(filepath.Join(EngineDir(dir, 0, n, 0), "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Replay <= 40 {
		t.Fatalf("hot shard checkpoint %d; the workload should have cascaded well past 40", m.Replay)
	}
	if uint64(len(m.Roots)) != m.Replay-20 {
		t.Fatalf("hot shard persisted %d roots, want the %d of heights (20, %d]", len(m.Roots), m.Replay-20, m.Replay)
	}
	for i, r := range m.Roots {
		if h := 21 + uint64(i); r.H != h || r.R != committed[h].String() {
			t.Fatalf("root %d is height %d %s, want height %d %s", i, r.H, r.R, h, committed[h])
		}
	}
}
