package run

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"cole/internal/types"
)

// genEntries produces a sorted entry set: nAddrs addresses with up to
// maxVersions versions each.
func genEntries(seed int64, nAddrs, maxVersions int) []types.Entry {
	r := rand.New(rand.NewSource(seed))
	var out []types.Entry
	for a := 0; a < nAddrs; a++ {
		addr := types.AddressFromUint64(uint64(a))
		blk := uint64(r.Intn(5))
		for v := 0; v < 1+r.Intn(maxVersions); v++ {
			out = append(out, types.Entry{
				Key:   types.CompoundKey{Addr: addr, Blk: blk},
				Value: types.ValueFromUint64(blk*1000 + uint64(a)),
			})
			blk += 1 + uint64(r.Intn(9))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return out
}

func buildRun(t *testing.T, entries []types.Entry, params Params) *Run {
	t.Helper()
	dir := t.TempDir()
	r, err := Build(dir, 1, int64(len(entries)), params, NewSliceIterator(entries))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// get is what the engine does per run: probe the Bloom filter, then
// search for the version of addr active at blk (types.MaxBlock = latest).
func get(r *Run, addr types.Address, blk uint64) (e types.Entry, pos int64, found, skipped bool, err error) {
	if !r.MayContain(addr) {
		return types.Entry{}, 0, false, true, nil
	}
	e, pos, found, err = r.SearchAt(addr, blk)
	return e, pos, found, false, err
}

func TestBuildAndGetEveryAddress(t *testing.T) {
	entries := genEntries(1, 500, 6)
	r := buildRun(t, entries, Params{Fanout: 4})

	// Latest version per address from the reference data.
	latest := map[types.Address]types.Entry{}
	for _, e := range entries {
		latest[e.Key.Addr] = e
	}
	for addr, want := range latest {
		e, pos, found, skipped, err := get(r, addr, types.MaxBlock)
		if err != nil {
			t.Fatal(err)
		}
		if skipped || !found {
			t.Fatalf("addr %v: found=%v skipped=%v", addr, found, skipped)
		}
		if e != want {
			t.Fatalf("addr %v: got %v want %v", addr, e, want)
		}
		if got, err := r.EntryAt(pos); err != nil || got != e {
			t.Fatalf("EntryAt(%d) disagrees: %v %v", pos, got, err)
		}
	}
}

func TestGetAbsentAddress(t *testing.T) {
	entries := genEntries(2, 100, 3)
	r := buildRun(t, entries, Params{Fanout: 4})
	miss := 0
	for i := 1000; i < 1200; i++ {
		e, _, found, skipped, err := get(r, types.AddressFromUint64(uint64(i)), types.MaxBlock)
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Fatalf("absent address reported found: %v", e)
		}
		if skipped {
			miss++
		}
	}
	if miss < 150 {
		t.Fatalf("bloom filter skipped only %d/200 absent lookups", miss)
	}
}

func TestGetAtHistoricalVersions(t *testing.T) {
	addr := types.AddressFromUint64(7)
	var entries []types.Entry
	for _, blk := range []uint64{10, 20, 30, 40} {
		entries = append(entries, types.Entry{
			Key:   types.CompoundKey{Addr: addr, Blk: blk},
			Value: types.ValueFromUint64(blk),
		})
	}
	r := buildRun(t, entries, Params{Fanout: 2})
	cases := []struct {
		q    uint64
		want uint64
		ok   bool
	}{
		{5, 0, false}, {10, 10, true}, {15, 10, true}, {25, 20, true},
		{40, 40, true}, {1000, 40, true},
	}
	for _, c := range cases {
		e, _, found, _, err := get(r, addr, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if found != c.ok {
			t.Fatalf("GetAt(%d): found=%v want %v", c.q, found, c.ok)
		}
		if found && e.Key.Blk != c.want {
			t.Fatalf("GetAt(%d) = blk %d, want %d", c.q, e.Key.Blk, c.want)
		}
	}
}

func TestLargeRunMultiLayerIndex(t *testing.T) {
	// A small page size shrinks ε and models-per-page, forcing several
	// learned-index layers even at test scale.
	entries := genEntries(3, 4000, 10)
	r := buildRun(t, entries, Params{Fanout: 8, PageSize: 512})
	if r.Layers() < 2 {
		t.Fatalf("expected a multi-layer learned index for %d entries, got %d layers", len(entries), r.Layers())
	}
	// Spot check predecessor semantics over random probe keys against a
	// reference binary search.
	probe := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		q := types.CompoundKey{
			Addr: types.AddressFromUint64(uint64(probe.Intn(4200))),
			Blk:  uint64(probe.Intn(200)),
		}
		idx := sort.Search(len(entries), func(i int) bool { return q.Less(entries[i].Key) })
		e, pos, ok, err := r.predecessor(q)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 0 {
			if ok {
				t.Fatalf("probe %v: expected no predecessor, got %v", q, e.Key)
			}
			continue
		}
		want := entries[idx-1]
		if !ok || e != want || pos != int64(idx-1) {
			t.Fatalf("probe %v: got (%v,%d,%v), want (%v,%d)", q, e.Key, pos, ok, want.Key, idx-1)
		}
	}
}

func TestRunStatsAndGeometry(t *testing.T) {
	entries := genEntries(5, 1000, 5)
	r := buildRun(t, entries, Params{Fanout: 4})
	if r.Count() != int64(len(entries)) {
		t.Fatalf("count %d, want %d", r.Count(), len(entries))
	}
	if r.MinKey() != entries[0].Key || r.MaxKey() != entries[len(entries)-1].Key {
		t.Fatal("min/max keys wrong")
	}
	if r.Models() <= 0 || r.Models() >= int64(len(entries)) {
		t.Fatalf("model count %d implausible for %d entries", r.Models(), len(entries))
	}
	data, index := r.SizeOnDisk()
	if data <= 0 || index <= 0 {
		t.Fatal("disk sizes must be positive")
	}
	v, i := r.IOStats()
	_ = v
	_ = i
}

func TestReopenRun(t *testing.T) {
	entries := genEntries(6, 300, 4)
	dir := t.TempDir()
	r1, err := Build(dir, 42, int64(len(entries)), Params{Fanout: 4}, NewSliceIterator(entries))
	if err != nil {
		t.Fatal(err)
	}
	digest := r1.Digest()
	root := r1.MHTRoot()
	r1.Close()

	r2, err := Open(dir, 42, Params{Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Digest() != digest || r2.MHTRoot() != root {
		t.Fatal("digests changed across reopen")
	}
	e, _, found, _, err := get(r2, entries[0].Key.Addr, types.MaxBlock)
	if err != nil || !found {
		t.Fatalf("reopened run lookup failed: %v", err)
	}
	_ = e
}

// dyingIterator ends early with a read failure (an ErrIterator).
type dyingIterator struct {
	*SliceIterator
	err error
}

func (d *dyingIterator) Err() error { return d.err }

func TestBuildValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Build(dir, 1, 0, Params{Fanout: 4}, NewSliceIterator(nil)); err == nil {
		t.Fatal("empty run must be rejected")
	}
	if _, err := Build(dir, 1, 5, Params{Fanout: 1}, NewSliceIterator(nil)); err == nil {
		t.Fatal("fanout 1 must be rejected")
	}
	// Count mismatch.
	entries := genEntries(7, 10, 2)
	if _, err := Build(dir, 2, int64(len(entries))+5, Params{Fanout: 4}, NewSliceIterator(entries)); err == nil {
		t.Fatal("count mismatch must be rejected")
	}
	// A source that died mid-stream is reported by its own error, not as
	// the count mismatch it also causes.
	dead := &dyingIterator{SliceIterator: NewSliceIterator(entries[:4]), err: errors.New("injected read failure")}
	if _, err := Build(dir, 3, int64(len(entries)), Params{Fanout: 4}, dead); !errors.Is(err, dead.err) {
		t.Fatalf("build over a dead source: %v, want its read failure", err)
	}
	// Aborted builds must not leave files behind for the failed id.
	files, _ := filepath.Glob(filepath.Join(dir, "run-*"))
	if len(files) != 0 {
		t.Fatalf("aborted build left files: %v", files)
	}
}

func TestCorruptMetaRejected(t *testing.T) {
	entries := genEntries(8, 50, 2)
	dir := t.TempDir()
	r, err := Build(dir, 9, int64(len(entries)), Params{Fanout: 4}, NewSliceIterator(entries))
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	metaFile := filepath.Join(dir, baseName(9)+".met")
	raw, err := os.ReadFile(metaFile)
	if err != nil {
		t.Fatal(err)
	}
	raw[3] ^= 0xFF
	if err := os.WriteFile(metaFile, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 9, Params{Fanout: 4}); err == nil {
		t.Fatal("corrupt metadata must be rejected")
	}
}

func TestRemoveDeletesFiles(t *testing.T) {
	entries := genEntries(9, 50, 2)
	dir := t.TempDir()
	r, err := Build(dir, 3, int64(len(entries)), Params{Fanout: 4}, NewSliceIterator(entries))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "run-*"))
	if len(files) != 0 {
		t.Fatalf("remove left files: %v", files)
	}
}

func TestProvSearchBasic(t *testing.T) {
	addr := types.AddressFromUint64(1)
	other := types.AddressFromUint64(2)
	var entries []types.Entry
	for _, blk := range []uint64{5, 10, 15, 20, 25} {
		entries = append(entries, types.Entry{Key: types.CompoundKey{Addr: addr, Blk: blk}, Value: types.ValueFromUint64(blk)})
		entries = append(entries, types.Entry{Key: types.CompoundKey{Addr: other, Blk: blk}, Value: types.ValueFromUint64(blk + 100)})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key.Less(entries[j].Key) })
	r := buildRun(t, entries, Params{Fanout: 2})

	res, err := r.ProvSearch(addr, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.BloomMiss {
		t.Fatal("address is present; bloom must not miss")
	}
	if len(res.Results) != 3 { // blocks 10, 15, 20
		t.Fatalf("got %d results, want 3", len(res.Results))
	}
	if !res.StopEarly {
		t.Fatal("version at blk 5 < 10 must trigger early stop")
	}
	verified, err := VerifyProv(r.MHTRoot(), addr, 10, 20, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(verified) != 3 {
		t.Fatalf("verified %d results", len(verified))
	}
	for i, blk := range []uint64{10, 15, 20} {
		if verified[i].Key.Blk != blk {
			t.Fatalf("result %d blk %d, want %d", i, verified[i].Key.Blk, blk)
		}
	}
}

func TestProvSearchNoOlderVersion(t *testing.T) {
	addr := types.AddressFromUint64(3)
	var entries []types.Entry
	for _, blk := range []uint64{50, 60} {
		entries = append(entries, types.Entry{Key: types.CompoundKey{Addr: addr, Blk: blk}, Value: types.ValueFromUint64(blk)})
	}
	r := buildRun(t, entries, Params{Fanout: 2})
	res, err := r.ProvSearch(addr, 40, 70)
	if err != nil {
		t.Fatal(err)
	}
	if res.StopEarly {
		t.Fatal("no version below blk 40 exists; must not stop early")
	}
	if len(res.Results) != 2 {
		t.Fatalf("got %d results", len(res.Results))
	}
	if _, err := VerifyProv(r.MHTRoot(), addr, 40, 70, res); err != nil {
		t.Fatal(err)
	}
}

func TestProvSearchBloomMiss(t *testing.T) {
	entries := genEntries(10, 50, 2)
	r := buildRun(t, entries, Params{Fanout: 4})
	// Find an address the bloom filter genuinely excludes.
	for i := uint64(10_000); ; i++ {
		res, err := r.ProvSearch(types.AddressFromUint64(i), 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if res.BloomMiss {
			if res.Proof != nil || len(res.Results) != 0 {
				t.Fatal("bloom miss must carry no span or results")
			}
			break
		}
		if i > 11_000 {
			t.Fatal("could not find a bloom-missed address")
		}
	}
}

func TestProvVerifyDetectsTampering(t *testing.T) {
	addr := types.AddressFromUint64(4)
	var entries []types.Entry
	for blk := uint64(0); blk < 40; blk += 2 {
		entries = append(entries, types.Entry{Key: types.CompoundKey{Addr: addr, Blk: blk}, Value: types.ValueFromUint64(blk)})
	}
	r := buildRun(t, entries, Params{Fanout: 4})
	root := r.MHTRoot()

	fresh := func() *ProvResult {
		res, err := r.ProvSearch(addr, 10, 20)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Tampered value.
	res := fresh()
	res.Span[1].Value[0] ^= 1
	if _, err := VerifyProv(root, addr, 10, 20, res); err == nil {
		t.Fatal("tampered span value must fail")
	}
	// Dropped result.
	res = fresh()
	res.Results = res.Results[:len(res.Results)-1]
	if _, err := VerifyProv(root, addr, 10, 20, res); err == nil {
		t.Fatal("dropped result must fail")
	}
	// Truncated span hiding results on the right.
	res = fresh()
	res.Span = res.Span[:len(res.Span)-2]
	res.SpanHi -= 2
	if _, err := VerifyProv(root, addr, 10, 20, res); err == nil {
		t.Fatal("truncated span must fail")
	}
	// Wrong root.
	res = fresh()
	badRoot := root
	badRoot[0] ^= 1
	if _, err := VerifyProv(badRoot, addr, 10, 20, res); err == nil {
		t.Fatal("wrong root must fail")
	}
}

func TestProvSearchEmptyRangeInsideHistory(t *testing.T) {
	addr := types.AddressFromUint64(5)
	entries := []types.Entry{
		{Key: types.CompoundKey{Addr: addr, Blk: 10}, Value: types.ValueFromUint64(1)},
		{Key: types.CompoundKey{Addr: addr, Blk: 90}, Value: types.ValueFromUint64(2)},
	}
	r := buildRun(t, entries, Params{Fanout: 2})
	res, err := r.ProvSearch(addr, 40, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 0 {
		t.Fatalf("no versions in [40,50], got %d", len(res.Results))
	}
	if !res.StopEarly {
		t.Fatal("version at 10 < 40 must stop the search")
	}
	if v, err := VerifyProv(r.MHTRoot(), addr, 40, 50, res); err != nil || len(v) != 0 {
		t.Fatalf("empty result must still verify: %v", err)
	}
}

func TestProvSearchInvertedRange(t *testing.T) {
	entries := genEntries(11, 10, 2)
	r := buildRun(t, entries, Params{Fanout: 4})
	if _, err := r.ProvSearch(entries[0].Key.Addr, 10, 5); err == nil {
		t.Fatal("inverted range must error")
	}
}

func TestDigestBindsBloomAndRoot(t *testing.T) {
	entries := genEntries(12, 100, 3)
	r := buildRun(t, entries, Params{Fanout: 4})
	if r.Digest() != Digest(r.MHTRoot(), r.BloomBytes()) {
		t.Fatal("verifier-side digest reconstruction differs")
	}
	// Changing the bloom bytes must change the digest.
	b := r.BloomBytes()
	b[len(b)-1] ^= 1
	if r.Digest() == Digest(r.MHTRoot(), b) {
		t.Fatal("digest must bind the bloom filter")
	}
}

// TestDigestsComputedOnceAtOpen pins the cost model of an immutable run:
// Digest and BloomDigest are field reads (no allocation, hence no
// re-marshal or re-hash of the filter), and they equal what a verifier
// recomputes from the disclosed parts — after Build, after a reopen, and
// for a partitioned build.
func TestDigestsComputedOnceAtOpen(t *testing.T) {
	entries := genEntries(13, 400, 4)
	count := int64(len(entries))
	params := Params{Fanout: 4}
	check := func(name string, r *Run) {
		t.Helper()
		if r.Digest() != Digest(r.MHTRoot(), r.BloomBytes()) {
			t.Fatalf("%s: memoized digest differs from the verifier-side reconstruction", name)
		}
		if r.BloomDigest() != types.HashData(r.BloomBytes()) {
			t.Fatalf("%s: memoized bloom digest differs from the hash of the filter bytes", name)
		}
		var sink types.Hash
		if n := testing.AllocsPerRun(100, func() { sink = r.Digest() }); n != 0 {
			t.Fatalf("%s: Digest allocates %.0f times per call", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { sink = r.BloomDigest() }); n != 0 {
			t.Fatalf("%s: BloomDigest allocates %.0f times per call", name, n)
		}
		_ = sink
	}

	dir := t.TempDir()
	built, err := Build(dir, 1, count, params, NewSliceIterator(entries))
	if err != nil {
		t.Fatal(err)
	}
	check("Build", built)
	want := built.Digest()
	built.Close()

	reopened, err := Open(dir, 1, params)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check("Open", reopened)
	if reopened.Digest() != want {
		t.Fatal("digest changed across reopen")
	}

	sources := buildSources(t, t.TempDir(), entries, 3, params)
	spans, err := PlanRuns(sources, 4, params.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	part, err := BuildPartitioned(t.TempDir(), 1, count, params, spans,
		func(sp Span) (Iterator, error) { return MergeRunsRange(sources, sp), nil },
		Parallel{Spawn: func(fn func()) { go fn() }})
	if err != nil {
		t.Fatal(err)
	}
	defer part.Close()
	check("BuildPartitioned", part)
	if part.Digest() != want {
		t.Fatal("partitioned build's digest differs from the sequential build's")
	}
}

func TestSingleEntryRun(t *testing.T) {
	addr := types.AddressFromUint64(6)
	entries := []types.Entry{{Key: types.CompoundKey{Addr: addr, Blk: 3}, Value: types.ValueFromUint64(9)}}
	r := buildRun(t, entries, Params{Fanout: 2})
	e, _, found, _, err := get(r, addr, types.MaxBlock)
	if err != nil || !found || e != entries[0] {
		t.Fatalf("single entry get: %v %v %v", e, found, err)
	}
	res, err := r.ProvSearch(addr, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 {
		t.Fatalf("results %d", len(res.Results))
	}
	if _, err := VerifyProv(r.MHTRoot(), addr, 0, 10, res); err != nil {
		t.Fatal(err)
	}
}
