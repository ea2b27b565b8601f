package core

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cole/internal/run"
	"cole/internal/types"
)

func testOpts(t *testing.T, async bool) Options {
	t.Helper()
	return Options{
		Dir:         t.TempDir(),
		MemCapacity: 32,
		SizeRatio:   2,
		Fanout:      4,
		AsyncMerge:  async,
	}
}

func openEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// oracle tracks the full version history per address.
type oracle struct {
	hist map[types.Address][]Version
}

func newOracle() *oracle { return &oracle{hist: map[types.Address][]Version{}} }

func (o *oracle) put(addr types.Address, blk uint64, v types.Value) {
	h := o.hist[addr]
	if len(h) > 0 && h[len(h)-1].Blk == blk {
		h[len(h)-1].Value = v // same-block overwrite
	} else {
		h = append(h, Version{Blk: blk, Value: v})
	}
	o.hist[addr] = h
}

func (o *oracle) latest(addr types.Address) (Version, bool) {
	h := o.hist[addr]
	if len(h) == 0 {
		return Version{}, false
	}
	return h[len(h)-1], true
}

func (o *oracle) at(addr types.Address, blk uint64) (Version, bool) {
	h := o.hist[addr]
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].Blk <= blk {
			return h[i], true
		}
	}
	return Version{}, false
}

func (o *oracle) between(addr types.Address, lo, hi uint64) []Version {
	var out []Version
	h := o.hist[addr]
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].Blk >= lo && h[i].Blk <= hi {
			out = append(out, h[i])
		}
	}
	return out
}

// runWorkload drives nBlocks blocks of random puts through the engine and
// the oracle in lockstep, returning the final Hstate.
func runWorkload(t *testing.T, e *Engine, o *oracle, seed int64, nBlocks, putsPerBlock, addrSpace int) types.Hash {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	start := e.Height() + 1
	var root types.Hash
	for b := 0; b < nBlocks; b++ {
		h := start + uint64(b)
		batch := make([]types.Update, 0, putsPerBlock)
		for p := 0; p < putsPerBlock; p++ {
			addr := types.AddressFromUint64(uint64(r.Intn(addrSpace)))
			v := types.ValueFromUint64(r.Uint64())
			batch = append(batch, types.Update{Addr: addr, Value: v})
			o.put(addr, h, v)
		}
		var err error
		root, err = e.CommitBlock(h, batch)
		if err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestPutGetSingleBlock(t *testing.T) {
	e := openEngine(t, testOpts(t, false))
	addr := types.AddressFromUint64(1)
	if _, err := e.CommitBlock(1, []types.Update{{Addr: addr, Value: types.ValueFromUint64(42)}}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := e.Get(addr)
	if err != nil || !ok || v.Uint64() != 42 {
		t.Fatalf("get: %v %v %v", v, ok, err)
	}
	if _, ok, _ := e.Get(types.AddressFromUint64(2)); ok {
		t.Fatal("absent address must miss")
	}
}

// TestBlockDiscipline checks the one block rule an engine keeps itself:
// CommitBlock's height must be above the last committed one (COLE does
// not fork, §4.3), and a rejected block leaves nothing behind. The
// store's block lifecycle is checked in shard.TestBlockDiscipline.
func TestBlockDiscipline(t *testing.T) {
	e := openEngine(t, testOpts(t, false))
	one := []types.Update{{Addr: types.AddressFromUint64(1), Value: types.ValueFromUint64(1)}}
	if _, err := e.CommitBlock(0, one); err == nil {
		t.Fatal("height 0 must be rejected on a fresh store")
	}
	if _, err := e.CommitBlock(5, nil); err != nil {
		t.Fatal(err)
	}
	for _, h := range []uint64{5, 4} {
		if _, err := e.CommitBlock(h, one); err == nil {
			t.Fatalf("height %d after 5 must fail (no forks)", h)
		}
	}
	if w, _ := e.MemEntries(); w != 0 || e.Height() != 5 {
		t.Fatalf("rejected blocks left %d L0 entries, height %d", w, e.Height())
	}
}

// TestOptionsValidation: every rejected setting fails Open with an error
// naming the offending field.
func TestOptionsValidation(t *testing.T) {
	for _, tc := range []struct {
		field string
		opts  Options
	}{
		{"Dir", Options{}},
		{"MemCapacity", Options{Dir: t.TempDir(), MemCapacity: -1}},
		{"SizeRatio", Options{Dir: t.TempDir(), SizeRatio: 1}},
		{"Fanout", Options{Dir: t.TempDir(), Fanout: 1}},
	} {
		e, err := Open(tc.opts)
		if err == nil {
			e.Close()
			t.Fatalf("invalid %s opened", tc.field)
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("invalid %s: error %q does not name the field", tc.field, err)
		}
	}
}

// TestMergeQuantumRule: the preemption quantum is a quarter of B, never
// below one entry.
func TestMergeQuantumRule(t *testing.T) {
	for _, tc := range []struct{ memCap, want int }{
		{1, 1}, {3, 1}, {4, 1}, {4096, 1024},
	} {
		if got := MergeQuantum(tc.memCap); got != tc.want {
			t.Errorf("MergeQuantum(%d) = %d, want %d", tc.memCap, got, tc.want)
		}
	}
}

func TestMultiLevelGetMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-level workload is the suite's heaviest case; run without -short")
	}
	for _, async := range []bool{false, true} {
		e := openEngine(t, testOpts(t, async))
		o := newOracle()
		runWorkload(t, e, o, 1, 300, 5, 60)
		if len(e.LevelRunCounts()) < 2 {
			t.Fatalf("async=%v: expected multiple on-disk levels, got %v", async, e.LevelRunCounts())
		}
		for a := 0; a < 60; a++ {
			addr := types.AddressFromUint64(uint64(a))
			want, wantOK := o.latest(addr)
			v, ok, err := e.Get(addr)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK {
				t.Fatalf("async=%v addr %d: found=%v want %v", async, a, ok, wantOK)
			}
			if ok && v != want.Value {
				t.Fatalf("async=%v addr %d: wrong latest value", async, a)
			}
		}
	}
}

func TestGetAtMatchesOracle(t *testing.T) {
	for _, async := range []bool{false, true} {
		e := openEngine(t, testOpts(t, async))
		o := newOracle()
		runWorkload(t, e, o, 2, 200, 4, 30)
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 500; i++ {
			addr := types.AddressFromUint64(uint64(r.Intn(30)))
			blk := uint64(r.Intn(220))
			want, wantOK := o.at(addr, blk)
			v, vb, ok, err := e.GetAt(addr, blk)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK {
				t.Fatalf("async=%v GetAt(%d): found=%v want %v", async, blk, ok, wantOK)
			}
			if ok && (v != want.Value || vb != want.Blk) {
				t.Fatalf("async=%v GetAt(%d): got blk %d want %d", async, blk, vb, want.Blk)
			}
		}
	}
}

func TestProvQueryVerifiesAgainstHstate(t *testing.T) {
	for _, async := range []bool{false, true} {
		e := openEngine(t, testOpts(t, async))
		o := newOracle()
		root := runWorkload(t, e, o, 4, 250, 5, 40)
		r := rand.New(rand.NewSource(5))
		for i := 0; i < 120; i++ {
			addr := types.AddressFromUint64(uint64(r.Intn(40)))
			lo := uint64(r.Intn(250)) + 1
			hi := lo + uint64(r.Intn(64))
			want := o.between(addr, lo, hi)

			got, proof, err := e.ProvQuery(addr, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("async=%v prov(%d,[%d,%d]): %d results, want %d", async, i, lo, hi, len(got), len(want))
			}
			verified, err := VerifyProv(root, addr, lo, hi, proof)
			if err != nil {
				t.Fatalf("async=%v verification failed: %v", async, err)
			}
			if len(verified) != len(want) {
				t.Fatalf("async=%v verified %d results, want %d", async, len(verified), len(want))
			}
			for j := range want {
				if verified[j] != want[j] || got[j] != want[j] {
					t.Fatalf("async=%v result %d mismatch", async, j)
				}
			}
		}
	}
}

func TestProvProofTamperingDetected(t *testing.T) {
	e := openEngine(t, testOpts(t, false))
	o := newOracle()
	root := runWorkload(t, e, o, 6, 200, 5, 10)
	addr := types.AddressFromUint64(3)

	_, proof, err := e.ProvQuery(addr, 50, 120)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyProv(root, addr, 50, 120, proof); err != nil {
		t.Fatalf("honest proof must verify: %v", err)
	}

	// Wrong query binding.
	if _, err := VerifyProv(root, addr, 50, 121, proof); err == nil {
		t.Fatal("proof bound to different range must fail")
	}
	other := types.AddressFromUint64(4)
	if _, err := VerifyProv(root, other, 50, 120, proof); err == nil {
		t.Fatal("proof bound to different address must fail")
	}
	// Wrong root.
	bad := root
	bad[0] ^= 1
	if _, err := VerifyProv(bad, addr, 50, 120, proof); err == nil {
		t.Fatal("wrong Hstate must fail")
	}
	// Tampered run span value.
	_, proof2, _ := e.ProvQuery(addr, 50, 120)
	tampered := false
	for _, rp := range proof2.Runs {
		if rp.Prov != nil && len(rp.Prov.Span) > 0 {
			rp.Prov.Span[0].Value[0] ^= 1
			tampered = true
			break
		}
	}
	if tampered {
		if _, err := VerifyProv(root, addr, 50, 120, proof2); err == nil {
			t.Fatal("tampered span must fail")
		}
	}
	// Hiding components: drop the last run part and claim it unsearched
	// without evidence is impossible to construct coherently, but simply
	// truncating parts must break the digest chain.
	_, proof3, _ := e.ProvQuery(addr, 50, 120)
	if len(proof3.Runs) > 0 {
		proof3.Runs = proof3.Runs[:len(proof3.Runs)-1]
		if _, err := VerifyProv(root, addr, 50, 120, proof3); err == nil {
			t.Fatal("dropped run part must fail")
		}
	}
}

func TestProvEarlyStopProducesUnsearched(t *testing.T) {
	e := openEngine(t, testOpts(t, false))
	o := newOracle()
	// A hot address updated every block guarantees versions below any
	// query range, triggering early stops.
	r := rand.New(rand.NewSource(7))
	hot := types.AddressFromUint64(999)
	var root types.Hash
	for b := 1; b <= 300; b++ {
		batch := []types.Update{{Addr: hot, Value: types.ValueFromUint64(uint64(b))}}
		o.put(hot, uint64(b), types.ValueFromUint64(uint64(b)))
		for p := 0; p < 4; p++ {
			a := types.AddressFromUint64(uint64(r.Intn(50)))
			v := types.ValueFromUint64(r.Uint64())
			batch = append(batch, types.Update{Addr: a, Value: v})
			o.put(a, uint64(b), v)
		}
		var err error
		if root, err = e.CommitBlock(uint64(b), batch); err != nil {
			t.Fatal(err)
		}
	}
	got, proof, err := e.ProvQuery(hot, 290, 295)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("hot address must have 6 versions in range, got %d", len(got))
	}
	if len(proof.Unsearched) == 0 {
		t.Fatal("early stop expected: deeper levels must be skipped")
	}
	verified, err := VerifyProv(root, hot, 290, 295, proof)
	if err != nil {
		t.Fatal(err)
	}
	if len(verified) != 6 {
		t.Fatalf("verified %d", len(verified))
	}
	// Forged unsearched section without evidence must fail: move all run
	// parts into unsearched digests.
	_, proof2, _ := e.ProvQuery(types.AddressFromUint64(1), 2, 3)
	hasEvidence := false
	for _, rp := range proof2.Runs {
		if rp.Prov != nil {
			for _, ent := range rp.Prov.Span {
				if ent.Key.Addr == types.AddressFromUint64(1) && ent.Key.Blk < 2 {
					hasEvidence = true
				}
			}
		}
	}
	if !hasEvidence {
		// Construct a lying proof: claim everything after L0 unsearched,
		// under each run's true digest, so the digests still chain to
		// Hstate and only the missing early-stop evidence can reject it.
		var digests []types.Hash
		for i, rp := range proof2.Runs {
			mhtRoot, _, err := run.ReconstructProv(types.AddressFromUint64(1), 2, 3, rp.Prov)
			if err != nil {
				t.Fatalf("run part %d: %v", i, err)
			}
			digests = append(digests, types.HashData(mhtRoot[:], rp.BloomDigest[:]))
		}
		proof2.Runs = nil
		proof2.Unsearched = append(digests, proof2.Unsearched...)
		_, err := VerifyProv(root, types.AddressFromUint64(1), 2, 3, proof2)
		if err == nil || !strings.Contains(err.Error(), "early-stop evidence") {
			t.Fatalf("skipping components without evidence must fail for that reason, got %v", err)
		}
	}
}

func TestProvInvertedRange(t *testing.T) {
	e := openEngine(t, testOpts(t, false))
	if _, _, err := e.ProvQuery(types.AddressFromUint64(1), 10, 5); err == nil {
		t.Fatal("inverted range must error")
	}
}

func TestAsyncAndSyncAgreeOnResults(t *testing.T) {
	// Same workload through COLE and COLE*: query results must be
	// identical (Hstate differs by construction: different structures).
	sync := openEngine(t, testOpts(t, false))
	async := openEngine(t, testOpts(t, true))
	oS, oA := newOracle(), newOracle()
	runWorkload(t, sync, oS, 11, 260, 5, 30)
	runWorkload(t, async, oA, 11, 260, 5, 30)
	for a := 0; a < 30; a++ {
		addr := types.AddressFromUint64(uint64(a))
		v1, ok1, err1 := sync.Get(addr)
		v2, ok2, err2 := async.Get(addr)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if ok1 != ok2 || v1 != v2 {
			t.Fatalf("addr %d: sync and async disagree", a)
		}
	}
	r1, _, _ := sync.ProvQuery(types.AddressFromUint64(5), 100, 200)
	r2, _, _ := async.ProvQuery(types.AddressFromUint64(5), 100, 200)
	if len(r1) != len(r2) {
		t.Fatalf("prov results differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("prov result %d differs", i)
		}
	}
}

func TestAsyncHstateDeterministicAcrossNodes(t *testing.T) {
	// The soundness requirement of §5: two nodes running the same blocks
	// compute identical Hstate at every height regardless of merge-thread
	// timing.
	optsA := testOpts(t, true)
	optsB := testOpts(t, true)
	a := openEngine(t, optsA)
	b := openEngine(t, optsB)
	r := rand.New(rand.NewSource(13))
	for blk := uint64(1); blk <= 400; blk++ {
		var ops []types.Update
		for p := 0; p < 5; p++ {
			ops = append(ops, types.Update{Addr: types.AddressFromUint64(uint64(r.Intn(50))), Value: types.ValueFromUint64(r.Uint64())})
		}
		ra, err := a.CommitBlock(blk, ops)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.CommitBlock(blk, ops)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Fatalf("Hstate diverged at height %d", blk)
		}
	}
}

func TestReopenAndReplayRestoresState(t *testing.T) {
	for _, async := range []bool{false, true} {
		opts := testOpts(t, async)
		e, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle()
		finalRoot := runWorkload(t, e, o, 17, 150, 5, 25)
		finalHeight := e.Height()
		// Close lands the last cascade's manifest, so the checkpoint it
		// leaves behind is the one the reopen resumes from.
		e.Close()
		cp := e.CheckpointHeight()
		if cp == 0 {
			t.Fatalf("async=%v: no checkpoint was taken", async)
		}

		// Crash model: reopen loses L0; blocks above the checkpoint must be
		// replayed, after which the state root matches.
		e2, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer e2.Close()
		if e2.Height() != cp {
			t.Fatalf("async=%v: reopened height %d, want checkpoint %d", async, e2.Height(), cp)
		}
		// Replay deterministically (same seed stream): regenerate the
		// whole workload, skipping blocks at or below the checkpoint.
		r := rand.New(rand.NewSource(17))
		for b := uint64(1); b <= finalHeight; b++ {
			var ops []types.Update
			for p := 0; p < 5; p++ {
				ops = append(ops, types.Update{Addr: types.AddressFromUint64(uint64(r.Intn(25))), Value: types.ValueFromUint64(r.Uint64())})
			}
			if b <= cp {
				continue
			}
			root, err := e2.CommitBlock(b, ops)
			if err != nil {
				t.Fatal(err)
			}
			if b == finalHeight && root != finalRoot {
				t.Fatalf("async=%v: replayed root differs at height %d", async, b)
			}
		}
		// Full state agreement.
		for a := 0; a < 25; a++ {
			addr := types.AddressFromUint64(uint64(a))
			want, wantOK := o.latest(addr)
			v, ok, err := e2.Get(addr)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK || (ok && v != want.Value) {
				t.Fatalf("async=%v: replayed state differs at addr %d", async, a)
			}
		}
	}
}

func TestOrphanCleanupOnOpen(t *testing.T) {
	opts := testOpts(t, false)
	e := openEngine(t, opts)
	o := newOracle()
	runWorkload(t, e, o, 19, 100, 5, 20)
	if err := e.FlushAll(); err != nil { // persist L0 so reopen needs no replay
		t.Fatal(err)
	}
	e.Close()

	// Simulate an interrupted merge: stray run files not in the manifest.
	for _, name := range []string{"run-00000000deadbeef.val", "run-00000000deadbeef.met"} {
		if err := os.WriteFile(filepath.Join(opts.Dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if _, err := os.Stat(filepath.Join(opts.Dir, "run-00000000deadbeef.val")); !os.IsNotExist(err) {
		t.Fatal("orphan files must be removed on open")
	}
	// Store still healthy.
	addr := types.AddressFromUint64(1)
	want, wantOK := o.latest(addr)
	v, ok, err := e2.Get(addr)
	if err != nil || ok != wantOK || (ok && v != want.Value) {
		t.Fatalf("store unhealthy after orphan cleanup: %v", err)
	}
}

// TestCorruptManifestRejected damages a MANIFEST two ways — bytes that
// do not parse, and a run listed twice — and holds the three readers to
// one verdict: Open and ReadStoreState (reshard's source read) fail with
// a typed ErrCorrupt pinned to the MANIFEST, and VerifyStore reports it.
func TestCorruptManifestRejected(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(t *testing.T, raw []byte) []byte
	}{
		{"unparsable", func(*testing.T, []byte) []byte { return []byte("{broken") }},
		{"run-listed-twice", func(t *testing.T, raw []byte) []byte {
			var m manifest
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			for li := range m.Levels {
				for g, ids := range m.Levels[li].Groups {
					if len(ids) > 0 {
						m.Levels[li].Groups[g] = append(ids, ids[0])
						out, err := json.MarshalIndent(m, "", "  ")
						if err != nil {
							t.Fatal(err)
						}
						return out
					}
				}
			}
			t.Fatal("manifest lists no run to repeat")
			return nil
		}},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			opts := testOpts(t, false)
			e := openEngine(t, opts)
			o := newOracle()
			runWorkload(t, e, o, 23, 80, 5, 20)
			e.Close()
			path := filepath.Join(opts.Dir, "MANIFEST")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.corrupt(t, raw), 0o644); err != nil {
				t.Fatal(err)
			}
			pinned := func(op string, err error) {
				t.Helper()
				var ec *types.ErrCorrupt
				if !errors.As(err, &ec) {
					t.Fatalf("%s: error is not a typed ErrCorrupt: %v", op, err)
				}
				if ec.File != path {
					t.Fatalf("%s: ErrCorrupt names %q, want %q", op, ec.File, path)
				}
			}
			if e2, err := Open(opts); err == nil {
				e2.Close()
				t.Fatal("corrupt manifest must be rejected")
			} else {
				pinned("Open", err)
			}
			_, err = ReadStoreState(nil, opts.Dir)
			pinned("ReadStoreState", err)
			findings, _, err := VerifyStore(nil, opts.Dir, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(findings) == 0 || findings[0].File != path {
				t.Fatalf("VerifyStore findings %v do not name %s", findings, path)
			}
		})
	}
}

func TestParameterMismatchRejected(t *testing.T) {
	opts := testOpts(t, false)
	e := openEngine(t, opts)
	o := newOracle()
	runWorkload(t, e, o, 29, 80, 5, 20)
	e.Close()
	bad := opts
	bad.SizeRatio = 8
	if _, err := Open(bad); err == nil {
		t.Fatal("size-ratio mismatch must be rejected")
	}
	bad = opts
	bad.AsyncMerge = true
	if _, err := Open(bad); err == nil {
		t.Fatal("merge-mode mismatch must be rejected")
	}
}

func TestFlushAllPersistsEverything(t *testing.T) {
	for _, async := range []bool{false, true} {
		opts := testOpts(t, async)
		e, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle()
		runWorkload(t, e, o, 31, 90, 5, 20)
		if err := e.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if w, m := e.MemEntries(); w != 0 || m != 0 {
			t.Fatalf("async=%v: L0 not empty after FlushAll: %d/%d", async, w, m)
		}
		h := e.Height()
		e.Close()
		e2, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer e2.Close()
		if e2.Height() != h {
			t.Fatalf("async=%v: FlushAll height %d not persisted (%d)", async, h, e2.Height())
		}
		for a := 0; a < 20; a++ {
			addr := types.AddressFromUint64(uint64(a))
			want, wantOK := o.latest(addr)
			v, ok, err := e2.Get(addr)
			if err != nil || ok != wantOK || (ok && v != want.Value) {
				t.Fatalf("async=%v: state lost after FlushAll+reopen (addr %d)", async, a)
			}
		}
	}
}

func TestStorageBreakdownAndStats(t *testing.T) {
	e := openEngine(t, testOpts(t, false))
	o := newOracle()
	runWorkload(t, e, o, 37, 120, 5, 20)
	sb := e.Storage()
	if sb.Entries == 0 || sb.DataBytes == 0 || sb.IndexBytes == 0 || sb.Runs == 0 {
		t.Fatalf("implausible storage breakdown: %+v", sb)
	}
	st := e.Stats()
	if st.Puts != 600 || st.Flushes == 0 || st.Merges == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

func TestHotColdWorkloadDeepLevels(t *testing.T) {
	// Skewed updates: one hot address plus a cold tail; versions of the
	// hot address span every level and provenance must find them all.
	e := openEngine(t, testOpts(t, true))
	hot := types.AddressFromUint64(0)
	nBlocks := 500
	var root types.Hash
	for b := 1; b <= nBlocks; b++ {
		var err error
		root, err = e.CommitBlock(uint64(b), []types.Update{
			{Addr: hot, Value: types.ValueFromUint64(uint64(b))},
			{Addr: types.AddressFromUint64(uint64(b)), Value: types.ValueFromUint64(1)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Full history of the hot address.
	got, proof, err := e.ProvQuery(hot, 1, uint64(nBlocks))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != nBlocks {
		t.Fatalf("hot address has %d versions, want %d", len(got), nBlocks)
	}
	verified, err := VerifyProv(root, hot, 1, uint64(nBlocks), proof)
	if err != nil {
		t.Fatal(err)
	}
	if len(verified) != nBlocks {
		t.Fatalf("verified %d versions", len(verified))
	}
	for i, v := range verified {
		if v.Blk != uint64(nBlocks-i) {
			t.Fatalf("version order broken at %d", i)
		}
	}
}
