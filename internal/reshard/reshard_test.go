package reshard_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cole/internal/core"
	"cole/internal/reshard"
	"cole/internal/shard"
	"cole/internal/types"
)

// testMemCap is small enough to force ≥3 cascaded on-disk levels from a
// modest block count (B=32, T=4: an L3 run holds 512 entries).
const testMemCap = 32

func buildOpts(dir string, shards int, async bool) core.Options {
	return core.Options{
		Dir:         dir,
		Shards:      shards,
		MemCapacity: testMemCap,
		AsyncMerge:  async,
	}
}

func addr(i int) types.Address { return types.AddressFromString(fmt.Sprintf("acct-%04d", i)) }

func val(i, blk int) types.Value {
	return types.ValueFromBytes([]byte(fmt.Sprintf("v-%d-at-%d", i, blk)))
}

// buildStore writes `blocks` blocks of overwriting updates (addresses
// cycle, so every address accrues many versions), flushes, and closes.
func buildStore(t *testing.T, dir string, shards, blocks, accounts int, async bool) {
	t.Helper()
	s, err := shard.Open(buildOpts(dir, shards, async))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	for b := 1; b <= blocks; b++ {
		if err := s.BeginBlock(uint64(b)); err != nil {
			t.Fatalf("begin %d: %v", b, err)
		}
		for k := 0; k < 10; k++ {
			i := (b*10 + k) % accounts
			if err := s.Put(addr(i), val(i, b)); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		if _, err := s.Commit(); err != nil {
			t.Fatalf("commit %d: %v", b, err)
		}
	}
	if err := s.FlushAll(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// answers captures every externally observable read result of a store.
type answers struct {
	height uint64
	gets   map[int]string         // addr index -> value (or "!absent")
	getAts map[string]string      // "i@blk" -> "blk:value"
	provs  map[int][]core.Version // addr index -> versions in [1, tip]
	batch  []core.ReadResult
}

func openStore(t *testing.T, dir string, async bool) *shard.Store {
	t.Helper()
	s, err := shard.Open(core.Options{Dir: dir, MemCapacity: testMemCap, AsyncMerge: async})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return s
}

func snapshotAnswers(t *testing.T, dir string, accounts int, async bool) *answers {
	t.Helper()
	s := openStore(t, dir, async)
	defer s.Close()
	return collectAnswers(t, s, accounts)
}

func collectAnswers(t *testing.T, s *shard.Store, accounts int) *answers {
	t.Helper()
	a := &answers{
		height: s.Height(),
		gets:   map[int]string{},
		getAts: map[string]string{},
		provs:  map[int][]core.Version{},
	}
	root := s.RootDigest()
	addrs := make([]types.Address, accounts)
	for i := 0; i < accounts; i++ {
		addrs[i] = addr(i)
		v, ok, err := s.Get(addr(i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !ok {
			a.gets[i] = "!absent"
		} else {
			a.gets[i] = v.String()
		}
		for blk := uint64(5); blk <= a.height; blk += 13 {
			v, wblk, ok, err := s.GetAt(addr(i), blk)
			if err != nil {
				t.Fatalf("getat %d@%d: %v", i, blk, err)
			}
			key := fmt.Sprintf("%d@%d", i, blk)
			if !ok {
				a.getAts[key] = "!absent"
			} else {
				a.getAts[key] = fmt.Sprintf("%d:%s", wblk, v)
			}
		}
		versions, proof, err := s.Prov(addr(i), 1, a.height)
		if err != nil {
			t.Fatalf("prov %d: %v", i, err)
		}
		if _, err := proof.Verify(root, addr(i), 1, a.height); err != nil {
			t.Fatalf("prov proof %d does not verify: %v", i, err)
		}
		a.provs[i] = versions
	}
	batch, err := s.GetBatch(addrs)
	if err != nil {
		t.Fatalf("getbatch: %v", err)
	}
	a.batch = batch
	return a
}

func diffAnswers(t *testing.T, label string, want, got *answers) {
	t.Helper()
	if want.height != got.height {
		t.Fatalf("%s: height %d != %d", label, got.height, want.height)
	}
	for i, w := range want.gets {
		if got.gets[i] != w {
			t.Errorf("%s: Get(%d) = %q, want %q", label, i, got.gets[i], w)
		}
	}
	for k, w := range want.getAts {
		if got.getAts[k] != w {
			t.Errorf("%s: GetAt(%s) = %q, want %q", label, k, got.getAts[k], w)
		}
	}
	for i, w := range want.provs {
		g := got.provs[i]
		if len(g) != len(w) {
			t.Errorf("%s: ProvQuery(%d) returned %d versions, want %d", label, i, len(g), len(w))
			continue
		}
		for k := range w {
			if g[k].Blk != w[k].Blk || g[k].Value != w[k].Value {
				t.Errorf("%s: ProvQuery(%d)[%d] = {%d %s}, want {%d %s}",
					label, i, k, g[k].Blk, g[k].Value, w[k].Blk, w[k].Value)
			}
		}
	}
	if len(want.batch) != len(got.batch) {
		t.Fatalf("%s: batch length %d != %d", label, len(got.batch), len(want.batch))
	}
	for i := range want.batch {
		if want.batch[i] != got.batch[i] {
			t.Errorf("%s: GetBatch[%d] = %+v, want %+v", label, i, got.batch[i], want.batch[i])
		}
	}
}

// TestReshardRoundTrip is the property test: a deep store with
// overwritten keys resharded N→M→N preserves every Get/GetAt/GetBatch/
// ProvQuery answer byte for byte, with all shard proofs verifying at
// each stage.
func TestReshardRoundTrip(t *testing.T) {
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			const accounts, blocks = 37, 150
			dir := t.TempDir()
			buildStore(t, dir, 2, blocks, accounts, async)
			want := snapshotAnswers(t, dir, accounts, async)
			func() {
				s := openStore(t, dir, async)
				defer s.Close()
				if lv := s.Storage().Levels; lv < 3 {
					t.Fatalf("store too shallow for the property test: %d levels", lv)
				}
			}()

			for hop, target := range []int{5, 2} {
				rep, err := reshard.Reshard(dir, target, reshard.Options{})
				if err != nil {
					t.Fatalf("reshard hop %d to %d: %v", hop, target, err)
				}
				if rep.ToShards != target || rep.Height != want.height {
					t.Fatalf("report %+v: want to=%d height=%d", rep, target, want.height)
				}
				if rep.Entries != int64(blocks*10) {
					t.Fatalf("report entries %d, want %d", rep.Entries, blocks*10)
				}
				s := openStore(t, dir, async)
				if s.Shards() != target {
					t.Fatalf("shards = %d, want %d", s.Shards(), target)
				}
				if s.Generation() != uint64(hop+1) {
					t.Fatalf("generation = %d, want %d", s.Generation(), hop+1)
				}
				got := collectAnswers(t, s, accounts)
				s.Close()
				diffAnswers(t, fmt.Sprintf("after reshard to %d", target), want, got)
			}
		})
	}
}

// TestReshardWritableAfter checks the rewritten store keeps working as a
// normal store: new blocks commit, cascade, and survive reopen.
func TestReshardWritableAfter(t *testing.T) {
	const accounts = 11
	dir := t.TempDir()
	buildStore(t, dir, 2, 40, accounts, false)
	if _, err := reshard.Reshard(dir, 3, reshard.Options{}); err != nil {
		t.Fatalf("reshard: %v", err)
	}
	s := openStore(t, dir, false)
	h := s.Height()
	for b := h + 1; b <= h+30; b++ {
		if err := s.BeginBlock(b); err != nil {
			t.Fatalf("begin %d: %v", b, err)
		}
		for k := 0; k < 10; k++ {
			i := int(b*10+uint64(k)) % accounts
			if err := s.Put(addr(i), val(i, int(b))); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		if _, err := s.Commit(); err != nil {
			t.Fatalf("commit %d: %v", b, err)
		}
	}
	if err := s.FlushAll(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	root := s.RootDigest()
	s.Close()
	s = openStore(t, dir, false)
	defer s.Close()
	if got := s.RootDigest(); got != root {
		t.Fatalf("digest changed across reopen: %s != %s", got, root)
	}
	v, ok, err := s.Get(addr(3))
	if err != nil || !ok {
		t.Fatalf("get after continued writes: ok=%v err=%v", ok, err)
	}
	_ = v
}

// TestReshardSparseDestinations reshards a tiny store across many
// shards so several destinations receive zero keys.
func TestReshardSparseDestinations(t *testing.T) {
	dir := t.TempDir()
	s, err := shard.Open(buildOpts(dir, 1, false))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.BeginBlock(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(addr(i), val(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	if _, err := reshard.Reshard(dir, 16, reshard.Options{}); err != nil {
		t.Fatalf("reshard: %v", err)
	}
	s, err = shard.Open(core.Options{Dir: dir, MemCapacity: testMemCap})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	if s.Shards() != 16 {
		t.Fatalf("shards = %d", s.Shards())
	}
	for i := 0; i < 3; i++ {
		v, ok, err := s.Get(addr(i))
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
		if v != val(i, 1) {
			t.Fatalf("get %d: wrong value", i)
		}
	}
}

// TestReshardLegacyUnsharded reshards a legacy store (engine at the
// directory root, no SHARDS file) straight into a multi-shard layout.
func TestReshardLegacyUnsharded(t *testing.T) {
	dir := t.TempDir()
	e, err := core.OpenShared(core.Options{Dir: dir, MemCapacity: 16}, nil, nil, 0)
	if err != nil {
		t.Fatalf("open engine: %v", err)
	}
	for b := 1; b <= 20; b++ {
		batch := make([]types.Update, 5)
		for k := range batch {
			batch[k] = types.Update{Addr: addr(k), Value: val(k, b)}
		}
		if _, err := e.CommitBlock(uint64(b), batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	rep, err := reshard.Reshard(dir, 4, reshard.Options{})
	if err != nil {
		t.Fatalf("reshard: %v", err)
	}
	if rep.FromShards != 1 || rep.Entries != 100 {
		t.Fatalf("report %+v", rep)
	}
	s, err := shard.Open(core.Options{Dir: dir, MemCapacity: 16})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	for k := 0; k < 5; k++ {
		v, ok, err := s.Get(addr(k))
		if err != nil || !ok || v != val(k, 20) {
			t.Fatalf("get %d: v=%s ok=%v err=%v", k, v, ok, err)
		}
	}
}

// TestReshardRefusesUnevenCheckpoints advances one shard's durable
// checkpoint past its siblings' (as a crash would) and expects the
// reshard to refuse rather than silently truncate the replay window.
func TestReshardRefusesUnevenCheckpoints(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, 2, 40, 11, false)
	// Advance shard-01 alone through its engine directory.
	e, err := core.OpenShared(core.Options{Dir: filepath.Join(dir, "shard-01"), MemCapacity: testMemCap}, nil, nil, 0)
	if err != nil {
		t.Fatalf("open shard-01: %v", err)
	}
	if _, err := e.CommitBlock(41, []types.Update{{Addr: addr(1), Value: val(1, 41)}}); err != nil {
		t.Fatal(err)
	}
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	if _, err := reshard.Reshard(dir, 4, reshard.Options{}); err == nil {
		t.Fatal("reshard accepted a store with uneven shard checkpoints")
	}
}

// TestReshardRefusesEmptyTargets covers parameter validation.
func TestReshardRefusesBadInput(t *testing.T) {
	dir := t.TempDir()
	if _, err := reshard.Reshard(dir, 2, reshard.Options{}); err == nil {
		t.Fatal("reshard accepted an empty directory")
	}
	buildStore(t, dir, 2, 10, 5, false)
	if _, err := reshard.Reshard(dir, 0, reshard.Options{}); err == nil {
		t.Fatal("reshard accepted shard count 0")
	}
	if _, err := reshard.Reshard(dir, shard.MaxShards+1, reshard.Options{}); err == nil {
		t.Fatal("reshard accepted an oversized shard count")
	}
	// A source MANIFEST that lists a run twice fails the one manifest
	// reader, as it fails Open: typed, before any run is merged.
	editManifest(t, filepath.Join(dir, "shard-00"), func(m map[string]any) {
		for _, lv := range m["levels"].([]any) {
			groups := lv.(map[string]any)["groups"].([]any)
			if ids := groups[0].([]any); len(ids) > 0 {
				groups[0] = append(ids, ids[0])
				return
			}
		}
		t.Fatal("shard-00 lists no run in a writing group")
	})
	_, err := reshard.Reshard(dir, 4, reshard.Options{})
	var ec *types.ErrCorrupt
	if !errors.As(err, &ec) {
		t.Fatalf("reshard of a store whose MANIFEST lists a run twice: want a typed ErrCorrupt, got %v", err)
	}
}

// editManifest rewrites the engine MANIFEST in dir through edit, as
// generic JSON.
func editManifest(t *testing.T, dir string, edit func(m map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, "MANIFEST")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// exportOf is the store's full export, one "addr blk value" line per
// entry.
func exportOf(t *testing.T, s *shard.Store) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := s.Export(func(a types.Address, blk uint64, v types.Value) error {
		_, err := fmt.Fprintf(&b, "%s %d %s\n", a, blk, v)
		return err
	}); err != nil {
		t.Fatalf("export: %v", err)
	}
	return b.Bytes()
}

// copyDir clones a store directory (each pinned reshard consumes one).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.OpenFile(target, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copy %s: %v", src, err)
	}
}

// TestReshardCompaction: resharding to the current count is a full
// compaction — same answers and the same export, one run per shard. It
// is also the migration for a store whose manifests still carry the
// sorted_batch flag of the removed sorted L0 insert path: Open refuses
// such a store, and reshard, which reads only runs, rewrites it without
// the flag.
func TestReshardCompaction(t *testing.T) {
	for _, sortedFlag := range []bool{false, true} {
		t.Run(fmt.Sprintf("sorted_batch=%v", sortedFlag), func(t *testing.T) {
			const accounts = 13
			dir := t.TempDir()
			buildStore(t, dir, 2, 60, accounts, false)
			want := snapshotAnswers(t, dir, accounts, false)
			s := openStore(t, dir, false)
			wantExport := exportOf(t, s)
			s.Close()
			if sortedFlag {
				for i := 0; i < 2; i++ {
					editManifest(t, filepath.Join(dir, fmt.Sprintf("shard-%02d", i)), func(m map[string]any) { m["sorted_batch"] = true })
				}
				if s, err := shard.Open(buildOpts(dir, 2, false)); err == nil {
					s.Close()
					t.Fatal("opened a store whose manifests carry sorted_batch")
				} else if !strings.Contains(err.Error(), "sorted_batch") {
					t.Fatalf("open error does not name the sorted_batch flag: %v", err)
				}
			}
			if _, err := reshard.Reshard(dir, 2, reshard.Options{}); err != nil {
				t.Fatalf("reshard: %v", err)
			}
			s = openStore(t, dir, false)
			defer s.Close()
			if runs := s.Storage().Runs; runs != 2 {
				t.Fatalf("compaction left %d runs, want 2 (one per shard)", runs)
			}
			diffAnswers(t, "compaction", want, collectAnswers(t, s, accounts))
			if got := exportOf(t, s); !bytes.Equal(got, wantExport) {
				t.Fatalf("export changed by the compaction: %d bytes, want %d", len(got), len(wantExport))
			}
		})
	}
}

// TestReshardRefusesLiveStore: resharding a directory a live store
// still serves must fail loudly (the advisory directory lock), and the
// live store must be unaffected.
func TestReshardRefusesLiveStore(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, 2, 10, 5, false)
	s := openStore(t, dir, false)
	defer s.Close()
	root := s.RootDigest()
	if _, err := reshard.Reshard(dir, 4, reshard.Options{}); err == nil {
		t.Fatal("reshard of a live store succeeded")
	}
	if got := s.RootDigest(); got != root {
		t.Fatalf("refused reshard changed the live store: %s != %s", got, root)
	}
	if s.Shards() != 2 {
		t.Fatalf("shards = %d", s.Shards())
	}
}
