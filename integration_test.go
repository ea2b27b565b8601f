package cole_test

import (
	"math/rand"
	"testing"

	"cole"
	"cole/internal/chain"
	"cole/internal/core"
	"cole/internal/kvstore"
	"cole/internal/types"
	"cole/internal/workload"
)

// TestColeAndMPTAgreeOnProvenance cross-checks the two provenance
// machineries end to end: for the same chain of blocks, the versions COLE
// proves for an address must equal the value *changes* observable through
// MPT's per-block historical roots.
func TestColeAndMPTAgreeOnProvenance(t *testing.T) {
	coleB, err := chain.OpenCole(core.Options{Dir: t.TempDir(), MemCapacity: 128, SizeRatio: 2, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coleB.Close()
	mptB, err := chain.OpenMPT(kvstore.Options{Dir: t.TempDir(), MemBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer mptB.Close()

	const blocks = 80
	for _, b := range []chain.StateBackend{coleB, mptB} {
		gen := workload.NewProvenance(3, 20)
		c := chain.New(b, 0)
		if _, err := c.ExecuteBlock(gen.LoadPhase()); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < blocks; i++ {
			if _, err := c.ExecuteBlock(gen.Block(10)); err != nil {
				t.Fatal(err)
			}
		}
	}

	hstate := coleB.Store.RootDigest()
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		addr := chain.KVAddr(workload.ProvKey(r.Intn(20)))
		lo := uint64(r.Intn(blocks-10) + 1)
		hi := lo + uint64(r.Intn(20))
		if hi > blocks {
			hi = blocks
		}

		// COLE: verified version list.
		_, proof, err := coleB.Store.Prov(addr, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		coleVersions, err := proof.Verify(hstate, addr, lo, hi)
		if err != nil {
			t.Fatal(err)
		}

		// MPT: per-block lookups; a version exists at block b iff the
		// value changed at b (or first appeared at b).
		var mptVersions []core.Version
		for b := hi; b >= lo; b-- {
			root, ok, err := mptB.History.RootAt(b)
			if err != nil || !ok {
				t.Fatalf("missing root at %d: %v", b, err)
			}
			cur, curOK, err := mptB.Trie.GetAtRoot(root, addr)
			if err != nil {
				t.Fatal(err)
			}
			if !curOK {
				continue
			}
			var prev types.Value
			prevOK := false
			if b > 1 {
				proot, ok2, err := mptB.History.RootAt(b - 1)
				if err != nil || !ok2 {
					t.Fatalf("missing root at %d: %v", b-1, err)
				}
				prev, prevOK, err = mptB.Trie.GetAtRoot(proot, addr)
				if err != nil {
					t.Fatal(err)
				}
			}
			if !prevOK || prev != cur {
				mptVersions = append(mptVersions, core.Version{Blk: b, Value: cur})
			}
		}

		if len(coleVersions) != len(mptVersions) {
			t.Fatalf("trial %d [%d,%d]: COLE %d versions, MPT %d", trial, lo, hi, len(coleVersions), len(mptVersions))
		}
		for i := range coleVersions {
			if coleVersions[i] != mptVersions[i] {
				t.Fatalf("trial %d: version %d differs: %+v vs %+v", trial, i, coleVersions[i], mptVersions[i])
			}
		}
	}
}

// TestGetAtConsistentWithProvQuery cross-checks the two read paths of the
// public API: GetAt(addr, b) must return the newest version ≤ b that
// ProvQuery reports.
func TestGetAtConsistentWithProvQuery(t *testing.T) {
	store, err := cole.Open(cole.Options{Dir: t.TempDir(), MemCapacity: 64, SizeRatio: 2, AsyncMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	addr := cole.AddressFromString("x")
	r := rand.New(rand.NewSource(4))
	const blocks = 200
	for h := uint64(1); h <= blocks; h++ {
		if err := store.BeginBlock(h); err != nil {
			t.Fatal(err)
		}
		if r.Intn(3) == 0 {
			if err := store.Put(addr, cole.ValueFromUint64(h)); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Put(cole.AddressFromString("noise"), cole.ValueFromUint64(h)); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	versions, _, err := store.Prov(addr, 1, blocks)
	if err != nil {
		t.Fatal(err)
	}
	for probe := uint64(1); probe <= blocks; probe += 7 {
		var want *cole.Version
		for i := range versions { // newest first
			if versions[i].Blk <= probe {
				want = &versions[i]
				break
			}
		}
		v, at, ok, err := store.GetAt(addr, probe)
		if err != nil {
			t.Fatal(err)
		}
		if (want == nil) == ok {
			t.Fatalf("probe %d: ok=%v want %v", probe, ok, want != nil)
		}
		if want != nil && (at != want.Blk || v != want.Value) {
			t.Fatalf("probe %d: GetAt says blk %d, ProvQuery says %d", probe, at, want.Blk)
		}
	}
}
