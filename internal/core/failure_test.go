package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cole/internal/pagefile"
	"cole/internal/pla"
	"cole/internal/run"
	"cole/internal/types"
)

// TestMissingRunFileDetectedOnOpen simulates a crash that lost a data file
// the manifest references: the open must fail loudly, never silently serve
// partial state.
func TestMissingRunFileDetectedOnOpen(t *testing.T) {
	opts := testOpts(t, false)
	e := openEngine(t, opts)
	o := newOracle()
	runWorkload(t, e, o, 41, 100, 5, 20)
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// Remove one value file referenced by the manifest.
	matches, err := filepath.Glob(filepath.Join(opts.Dir, "run-*.val"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no run files found: %v", err)
	}
	if err := os.Remove(matches[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); err == nil {
		t.Fatal("missing run file must fail open")
	}
}

// TestTruncatedValueFileDetected corrupts a value file's length: the size
// check at open must reject it.
func TestTruncatedValueFileDetected(t *testing.T) {
	opts := testOpts(t, false)
	e := openEngine(t, opts)
	o := newOracle()
	runWorkload(t, e, o, 43, 100, 5, 20)
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	matches, _ := filepath.Glob(filepath.Join(opts.Dir, "run-*.val"))
	if len(matches) == 0 {
		t.Fatal("no value files")
	}
	st, err := os.Stat(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(matches[0], st.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); err == nil {
		t.Fatal("truncated value file must fail open")
	}
}

// TestTornManifestTmpIgnored simulates a crash between writing the
// manifest temp file and renaming it: the temp must be ignored and the
// previous manifest used.
func TestTornManifestTmpIgnored(t *testing.T) {
	opts := testOpts(t, false)
	e := openEngine(t, opts)
	o := newOracle()
	runWorkload(t, e, o, 47, 100, 5, 20)
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	h := e.Height()
	e.Close()

	if err := os.WriteFile(filepath.Join(opts.Dir, "MANIFEST.tmp"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Height() != h {
		t.Fatalf("height %d after torn tmp, want %d", e2.Height(), h)
	}
	addr := types.AddressFromUint64(1)
	want, wantOK := o.latest(addr)
	v, ok, err := e2.Get(addr)
	if err != nil || ok != wantOK || (ok && v != want.Value) {
		t.Fatalf("state wrong after torn manifest tmp: %v", err)
	}
}

// TestProofMarshalRoundTrip serializes a provenance proof across the
// "wire" and verifies the decoded copy.
func TestProofMarshalRoundTrip(t *testing.T) {
	e := openEngine(t, testOpts(t, true))
	o := newOracle()
	root := runWorkload(t, e, o, 53, 200, 5, 30)
	addr := types.AddressFromUint64(7)

	want, proof, err := e.ProvQuery(addr, 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := proof.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("empty encoding")
	}
	decoded, err := UnmarshalProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := VerifyProv(root, addr, 50, 150, decoded)
	if err != nil {
		t.Fatalf("decoded proof failed verification: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded proof yields %d versions, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("version %d mismatch after round trip", i)
		}
	}
	// Corrupted wire bytes must fail to decode or to verify.
	raw[len(raw)/2] ^= 0xFF
	if p2, err := UnmarshalProof(raw); err == nil {
		if _, err := VerifyProv(root, addr, 50, 150, p2); err == nil {
			t.Fatal("corrupted encoding verified")
		}
	}
}

// TestMergeWaitBackpressure forces slow merges to verify the commit
// checkpoint blocks rather than corrupting state (Algorithm 5 line 9).
func TestMergeWaitBackpressure(t *testing.T) {
	opts := testOpts(t, true)
	opts.MemCapacity = 8 // flush every ~2 blocks: merges constantly in flight
	e := openEngine(t, opts)
	o := newOracle()
	runWorkload(t, e, o, 59, 400, 5, 10)
	if e.Stats().MergeWaits == 0 {
		t.Skip("no merge waits observed on this machine; nothing to assert")
	}
	for a := 0; a < 10; a++ {
		addr := types.AddressFromUint64(uint64(a))
		want, wantOK := o.latest(addr)
		v, ok, err := e.Get(addr)
		if err != nil || ok != wantOK || (ok && v != want.Value) {
			t.Fatalf("state wrong under merge back-pressure: %v", err)
		}
	}
}

// TestBloomFalsePositiveFallback forces a sky-high false-positive rate:
// lookups must still be correct, just slower (the paper's design note:
// bloom hits fall through to the real search).
func TestBloomFalsePositiveFallback(t *testing.T) {
	opts := testOpts(t, false)
	opts.BloomFP = 0.9 // nearly useless filters
	e := openEngine(t, opts)
	o := newOracle()
	runWorkload(t, e, o, 61, 150, 5, 25)
	for a := 0; a < 25; a++ {
		addr := types.AddressFromUint64(uint64(a))
		want, wantOK := o.latest(addr)
		v, ok, err := e.Get(addr)
		if err != nil || ok != wantOK || (ok && v != want.Value) {
			t.Fatalf("state wrong with degenerate blooms: %v", err)
		}
	}
	// Absent addresses must still miss.
	for a := 1000; a < 1020; a++ {
		if _, ok, _ := e.Get(types.AddressFromUint64(uint64(a))); ok {
			t.Fatal("false positive leaked a phantom value")
		}
	}
}

// TestDirIsFileFails covers a pathological environment.
func TestDirIsFileFails(t *testing.T) {
	f := filepath.Join(t.TempDir(), "notadir")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: f}); err == nil {
		t.Fatal("file-as-dir must fail")
	}
	if _, err := Open(Options{Dir: filepath.Join(f, "sub")}); err == nil {
		t.Fatal("dir under a file must fail")
	}
}

// TestManifestRejectsUnknownFieldsGracefully ensures forward-compat junk
// in the manifest directory doesn't break opens.
func TestStrayNonRunFilesIgnored(t *testing.T) {
	opts := testOpts(t, false)
	e := openEngine(t, opts)
	o := newOracle()
	runWorkload(t, e, o, 71, 60, 5, 10)
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	for _, name := range []string{"notes.txt", "run.backup", "LOCK"} {
		if err := os.WriteFile(filepath.Join(opts.Dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	for _, name := range []string{"notes.txt", "run.backup", "LOCK"} {
		if _, err := os.Stat(filepath.Join(opts.Dir, name)); err != nil {
			t.Fatalf("unrelated file %s was deleted", name)
		}
	}
	if !strings.HasPrefix(filepath.Base(e2.manifestPath()), "MANIFEST") {
		t.Fatal("sanity")
	}
}

// TestDamagedLearnedModelIsACorruptRead: no digest covers the .idx file,
// so a model whose intercept is three pages off passes Open. A Get that
// lands under it must fail with a typed corruption error naming the file
// (counted in Stats.CorruptReads) — answering "absent", or with an older
// version from a deeper run, would be a silent wrong answer. Every read
// that does succeed still returns the oracle's value.
func TestDamagedLearnedModelIsACorruptRead(t *testing.T) {
	opts := testOpts(t, false)
	e := openEngine(t, opts)
	o := newOracle()
	const addrSpace = 400
	runWorkload(t, e, o, 59, 150, 20, addrSpace)
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// Shift every model of every single-layer run of eight pages or more.
	idxFiles, err := filepath.Glob(filepath.Join(opts.Dir, "run-*.idx"))
	if err != nil {
		t.Fatal(err)
	}
	const perPage = pagefile.DefaultPageSize / types.EntrySize
	damaged := 0
	for _, path := range idxFiles {
		var id uint64
		if _, err := fmt.Sscanf(filepath.Base(path), "run-%016x.idx", &id); err != nil {
			t.Fatal(err)
		}
		r, err := run.Open(opts.Dir, id, run.Params{Fanout: opts.Fanout})
		if err != nil {
			t.Fatal(err)
		}
		count, layers, models := r.Count(), r.Layers(), int(r.Models())
		r.Close()
		if layers != 1 || count < 8*perPage {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < models; j++ {
			off := j*pla.ModelSize + types.CompoundKeySize + 8
			ic := math.Float64frombits(binary.BigEndian.Uint64(raw[off:]))
			binary.BigEndian.PutUint64(raw[off:], math.Float64bits(ic+3*perPage))
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged == 0 {
		t.Fatal("the store has no single-layer run of eight pages to damage")
	}

	e2 := openEngine(t, opts)
	corrupt := int64(0)
	for i := 0; i < addrSpace; i++ {
		addr := types.AddressFromUint64(uint64(i))
		v, ok, err := e2.Get(addr)
		if err != nil {
			var ec *types.ErrCorrupt
			if !errors.As(err, &ec) || !strings.HasSuffix(ec.File, ".idx") || ec.Store != opts.Dir {
				t.Fatalf("Get(%d): %v, want a corruption error naming an .idx file of the store", i, err)
			}
			corrupt++
			continue
		}
		if want, wantOK := o.latest(addr); ok != wantOK || (ok && v != want.Value) {
			t.Fatalf("Get(%d) = (%v, %v), the oracle says (%v, %v): a damaged model was served silently", i, v, ok, want.Value, wantOK)
		}
	}
	if corrupt == 0 {
		t.Fatal("no read noticed the damaged models")
	}
	if st := e2.Stats(); st.CorruptReads != corrupt {
		t.Fatalf("Stats.CorruptReads = %d, reads that failed = %d", st.CorruptReads, corrupt)
	}
}
