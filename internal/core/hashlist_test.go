package core

import (
	"runtime"
	"testing"

	"cole/internal/mbtree"
	"cole/internal/types"
)

// commitAllocBytes grows a sync-merge engine to the given number of
// blocks, then reports the most bytes any single no-cascade Commit
// allocated (TotalAlloc delta around the call) and the level count.
func commitAllocBytes(t *testing.T, blocks int) (worst uint64, levels int) {
	t.Helper()
	const putsPerBlock = 8
	opts := testOpts(t, false)
	opts.MemCapacity = 256
	e := openEngine(t, opts)
	next := uint64(0)
	block := func(h uint64) {
		if err := e.BeginBlock(h); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < putsPerBlock; p++ {
			next++
			if err := e.Put(types.AddressFromUint64(next), types.ValueFromUint64(next)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for h := uint64(1); h <= uint64(blocks); h++ {
		block(h)
		if _, err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	measured := 0
	for h := uint64(blocks) + 1; measured < 20; h++ {
		block(h)
		flushes := e.Stats().Flushes
		runtime.ReadMemStats(&before)
		if _, err := e.Commit(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if e.Stats().Flushes != flushes {
			continue // this commit cascaded: its cost is the flush, not the hash list
		}
		measured++
		if d := after.TotalAlloc - before.TotalAlloc; d > worst {
			worst = d
		}
	}
	return worst, len(e.levels)
}

// TestCommitAllocationIndependentOfStoreSize pins the cost model of the
// commit path: a block that does not cascade pays for its own updates —
// the dirty L0 nodes, the view, the L0 filter clone — and for one field
// read per run, never for the runs' contents. Before run digests were
// memoized every commit re-marshaled every run's Bloom filter twice
// (~2.4 B per stored entry), which this bound rejects at either size.
func TestCommitAllocationIndependentOfStoreSize(t *testing.T) {
	const bound = 4 << 10
	small, levels := commitAllocBytes(t, 400)
	if levels < 3 {
		t.Fatalf("small store has %d levels, want at least 3", levels)
	}
	large, _ := commitAllocBytes(t, 1600)
	t.Logf("worst no-cascade commit: %d B at 3.2k entries, %d B at 12.8k entries", small, large)
	if small > bound || large > bound {
		t.Fatalf("no-cascade commit allocated %d B (small store) / %d B (4x store), bound %d B", small, large, bound)
	}
}

// flipAll inverts every byte of b in place.
func flipAll(b []byte) {
	for i := range b {
		b[i] = ^b[i]
	}
}

// TestProofDoesNotAliasEngineState: a proof is the caller's to keep or
// mutate. Inverting every byte of every slice it carries — spans, range
// proof siblings, L0 nodes — must leave the engine answering and proving
// exactly as before. The absent address's proof has a span in every run
// part: absence is proven by flanking entries, never by a filter.
func TestProofDoesNotAliasEngineState(t *testing.T) {
	for _, async := range []bool{false, true} {
		e := openEngine(t, testOpts(t, async))
		o := newOracle()
		runWorkload(t, e, o, 21, 200, 5, 40)
		if err := e.FlushAll(); err != nil {
			t.Fatal(err)
		}
		root := e.RootDigest()

		present := types.AddressFromUint64(3)
		absent := types.AddressFromUint64(1 << 40)
		for _, addr := range []types.Address{present, absent} {
			want, proof, err := e.ProvQuery(addr, 1, 200)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := VerifyProv(root, addr, 1, 200, proof); err != nil {
				t.Fatalf("async=%v: honest proof must verify: %v", async, err)
			}
			if addr == absent {
				if len(proof.Runs) == 0 {
					t.Fatalf("async=%v: absent address's proof searched no run", async)
				}
				for i, rp := range proof.Runs {
					if rp.Prov == nil || len(rp.Prov.Span) == 0 || len(rp.Prov.Results) != 0 {
						t.Fatalf("async=%v: absent address's run part %d is not an empty-handed span", async, i)
					}
				}
			}
			scribble(proof)

			got, fresh, err := e.ProvQuery(addr, 1, 200)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := VerifyProv(root, addr, 1, 200, fresh); err != nil {
				t.Fatalf("async=%v: proof after scribbling on an earlier one no longer verifies: %v", async, err)
			}
			if len(got) != len(want) {
				t.Fatalf("async=%v: %d versions after scribbling, %d before", async, len(got), len(want))
			}
		}
		wantV, _ := o.latest(present)
		if v, ok, err := e.Get(present); err != nil || !ok || v != wantV.Value {
			t.Fatalf("async=%v: Get of a present key after scribbling: %v %v %v", async, v, ok, err)
		}
		if _, ok, err := e.Get(absent); err != nil || ok {
			t.Fatalf("async=%v: Get of an absent key after scribbling: %v %v", async, ok, err)
		}
	}
}

// scribble inverts every byte of every slice the proof carries.
func scribble(proof *Proof) {
	flipEntries := func(es []types.Entry) {
		for i := range es {
			flipAll(es[i].Key.Addr[:])
			flipAll(es[i].Value[:])
		}
	}
	flipHashes := func(hs []types.Hash) {
		for i := range hs {
			flipAll(hs[i][:])
		}
	}
	for _, mp := range proof.Mem {
		if mp.Proof == nil || mp.Proof.Root == nil {
			continue
		}
		stack := []*mbtree.ProofNode{mp.Proof.Root}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			flipEntries(n.Leaf)
			if n.Pruned != nil {
				flipAll(n.Pruned[:])
			}
			for _, c := range n.Children {
				stack = append(stack, c.Node)
			}
		}
	}
	for i := range proof.Runs {
		rp := &proof.Runs[i]
		if rp.Prov == nil {
			continue
		}
		flipEntries(rp.Prov.Span)
		flipEntries(rp.Prov.Results)
		if rp.Prov.Proof != nil {
			for l := range rp.Prov.Proof.Left {
				flipHashes(rp.Prov.Proof.Left[l])
				flipHashes(rp.Prov.Proof.Right[l])
			}
		}
	}
	flipHashes(proof.Unsearched)
}

// TestVerifyProvRejectsAbsenceWithoutSpan: every searched run must prove
// an absent address absent with a span whose flanking entries leave no
// room for a version. A run part with no span, or with its span cut to
// one entry under a recomputed (still valid) Merkle proof, must fail.
func TestVerifyProvRejectsAbsenceWithoutSpan(t *testing.T) {
	e := openEngine(t, testOpts(t, false))
	o := newOracle()
	root := runWorkload(t, e, o, 22, 100, 5, 20)
	addr := types.AddressFromUint64(1 << 41)
	query := func() *Proof {
		t.Helper()
		got, proof, err := e.ProvQuery(addr, 1, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 || len(proof.Runs) == 0 {
			t.Fatalf("absent address: %d versions over %d run parts", len(got), len(proof.Runs))
		}
		if v, err := VerifyProv(root, addr, 1, 100, proof); err != nil || len(v) != 0 {
			t.Fatalf("honest absence proof: %d versions, %v", len(v), err)
		}
		return proof
	}

	// Nothing commits from here on, so every query sees this view, and
	// with no early stop its run i is run part i.
	v := e.acquireView()
	defer v.release()
	for i := range query().Runs {
		proof := query()
		proof.Runs[i].Prov = nil
		if _, err := VerifyProv(root, addr, 1, 100, proof); err == nil {
			t.Fatalf("run part %d without a span verified", i)
		}
		// Keep either flank alone under its own, well-formed proof.
		for _, side := range []string{"left", "right"} {
			proof = query()
			res := proof.Runs[i].Prov
			if len(res.Span) < 2 {
				break // the address sorts before or after the whole run
			}
			keep := res.SpanLo
			if side == "right" {
				keep = res.SpanHi
			}
			cut, err := v.runs[i].r.ProveRange(keep, keep)
			if err != nil {
				t.Fatal(err)
			}
			res.Span = res.Span[keep-res.SpanLo : keep-res.SpanLo+1]
			res.SpanLo, res.SpanHi, res.Proof = keep, keep, cut
			if _, err := VerifyProv(root, addr, 1, 100, proof); err == nil {
				t.Fatalf("run part %d with its span cut to its %s flank verified", i, side)
			}
		}
	}
}
