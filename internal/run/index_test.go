package run

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"cole/internal/bloom"
	"cole/internal/pagefile"
	"cole/internal/pla"
	"cole/internal/types"
)

// diskIndex is the learned-index descent as it ran before the index
// became resident: every layer is read page by page from the .idx file
// (modelsPage), a model is found on the predicted page or a neighbour
// (findModel), and the value file is searched the same way. It is the
// reference the in-memory descent must agree with on every key.
type diskIndex struct {
	r      *Run
	index  *pagefile.File
	values *pagefile.File // the run's own
}

func openDiskIndex(t *testing.T, r *Run) *diskIndex {
	t.Helper()
	top := r.layers[len(r.layers)-1]
	perPage := int64(pagefile.PerPage(r.params.PageSize, pla.ModelSize))
	index, err := pagefile.OpenFS(r.params.FS, indexPath(r.dir, r.ID), r.params.PageSize, pla.ModelSize, top.StartPage*perPage+top.Models, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { index.Close() })
	return &diskIndex{r: r, index: index, values: r.values}
}

// kminAt decodes the anchor key of the i-th model on an index page.
func kminAt(page []byte, i int) (types.CompoundKey, error) {
	return types.DecodeCompoundKey(page[i*pla.ModelSize:])
}

// pageRecords copies a page's records out of its pin.
func pageRecords(f *pagefile.File, page int64) ([]byte, int, error) {
	pg, err := f.Pin(page)
	if err != nil {
		return nil, 0, err
	}
	defer pg.Release()
	return append([]byte(nil), pg.Records...), pg.N, nil
}

func (d *diskIndex) modelsPage(layer layerMeta, page int64) ([]byte, int, error) {
	data, _, err := pageRecords(d.index, page)
	if err != nil {
		return nil, 0, err
	}
	perPage := int64(d.index.PerPage())
	valid := layer.Models - (page-layer.StartPage)*perPage
	if valid > perPage {
		valid = perPage
	}
	if valid < 1 {
		return nil, 0, fmt.Errorf("page %d outside layer models", page)
	}
	return data, int(valid), nil
}

func (d *diskIndex) findModel(layer layerMeta, page int64, kq types.CompoundKey) (pla.Model, error) {
	first := layer.StartPage
	last := layer.StartPage + layer.Pages - 1
	data, valid, err := d.modelsPage(layer, page)
	if err != nil {
		return pla.Model{}, err
	}
	firstK, err := kminAt(data, 0)
	if err != nil {
		return pla.Model{}, err
	}
	if kq.Less(firstK) {
		if page == first {
			return pla.Model{}, fmt.Errorf("key %v precedes layer start", kq)
		}
		page--
		if data, valid, err = d.modelsPage(layer, page); err != nil {
			return pla.Model{}, err
		}
	} else {
		lastK, err := kminAt(data, valid-1)
		if err != nil {
			return pla.Model{}, err
		}
		if lastK.Less(kq) && page < last {
			nData, nValid, err := d.modelsPage(layer, page+1)
			if err != nil {
				return pla.Model{}, err
			}
			nFirst, err := kminAt(nData, 0)
			if err != nil {
				return pla.Model{}, err
			}
			if !kq.Less(nFirst) {
				data, valid = nData, nValid
			}
		}
	}
	m, _, ok := pla.SearchPage(data, valid, kq)
	if !ok {
		return pla.Model{}, fmt.Errorf("model search missed for %v", kq)
	}
	return m, nil
}

func (d *diskIndex) findEntry(pred int64, kq types.CompoundKey) (types.Entry, int64, bool, error) {
	perPage := int64(d.values.PerPage())
	page := clamp(pred/perPage, 0, d.values.NumPages()-1)
	data, n, err := pageRecords(d.values, page)
	if err != nil {
		return types.Entry{}, 0, false, err
	}
	firstK, _ := types.DecodeCompoundKey(data)
	if kq.Less(firstK) {
		if page == 0 {
			return types.Entry{}, 0, false, nil
		}
		page--
		if data, n, err = pageRecords(d.values, page); err != nil {
			return types.Entry{}, 0, false, err
		}
	} else {
		lastK, _ := types.DecodeCompoundKey(data[(n-1)*types.EntrySize:])
		if lastK.Less(kq) && page < d.values.NumPages()-1 {
			nData, nN, err := pageRecords(d.values, page+1)
			if err != nil {
				return types.Entry{}, 0, false, err
			}
			nFirst, _ := types.DecodeCompoundKey(nData)
			if !kq.Less(nFirst) {
				data, n = nData, nN
				page++
			}
		}
	}
	idx := predecessorInPage(data, n, kq)
	if idx < 0 {
		return types.Entry{}, 0, false, nil
	}
	e, err := types.DecodeEntry(data[idx*types.EntrySize:])
	return e, page*perPage + int64(idx), err == nil, err
}

func (d *diskIndex) predecessor(kq types.CompoundKey) (types.Entry, int64, bool, error) {
	r := d.r
	if kq.Cmp(r.minKey) < 0 {
		return types.Entry{}, 0, false, nil
	}
	perPage := int64(d.index.PerPage())
	top := r.layers[len(r.layers)-1]
	data, valid, err := d.modelsPage(top, top.StartPage)
	if err != nil {
		return types.Entry{}, 0, false, err
	}
	model, _, ok := pla.SearchPage(data, valid, kq)
	if !ok {
		return types.Entry{}, 0, false, nil
	}
	for li := len(r.layers) - 1; li >= 1; li-- {
		target := r.layers[li-1]
		page := clamp(model.Predict(kq)/perPage, target.StartPage, target.StartPage+target.Pages-1)
		if model, err = d.findModel(target, page, kq); err != nil {
			return types.Entry{}, 0, false, err
		}
	}
	return d.findEntry(model.Predict(kq), kq)
}

// searchAt is Run.SearchAt over the on-disk descent.
func (d *diskIndex) searchAt(addr types.Address, blk uint64) (types.Entry, int64, bool, error) {
	e, pos, ok, err := d.predecessor(types.CompoundKey{Addr: addr, Blk: blk})
	if err != nil || !ok || e.Key.Addr != addr {
		return types.Entry{}, 0, false, err
	}
	return e, pos, true, nil
}

// goldenRuns builds the golden entry set (golden_test.go) as one run at
// the default geometry and one at a small page size that forces a
// multi-layer index.
func goldenRuns(t *testing.T) (entries []types.Entry, runs []*Run) {
	t.Helper()
	entries = genEntries(7, 800, 8)
	for _, pageSize := range []int{0, 256} {
		runs = append(runs, buildRun(t, entries, Params{Fanout: 4, PageSize: pageSize}))
	}
	return entries, runs
}

// TestResidentIndexMatchesOnDiskDescent: for every key of the golden
// runs, keys between entries, below the minimum and above the maximum,
// SearchAt over the resident index returns exactly what the page-by-page
// descent of the .idx file returns.
func TestResidentIndexMatchesOnDiskDescent(t *testing.T) {
	entries, runs := goldenRuns(t)
	multiLayer := false
	for _, r := range runs {
		multiLayer = multiLayer || r.Layers() > 1
		ref := openDiskIndex(t, r)
		check := func(addr types.Address, blk uint64) {
			t.Helper()
			we, wpos, wok, werr := ref.searchAt(addr, blk)
			ge, gpos, gok, gerr := r.SearchAt(addr, blk)
			if werr != nil || gerr != nil {
				t.Fatalf("⟨%v,%d⟩: reference err %v, resident err %v", addr, blk, werr, gerr)
			}
			if ge != we || gpos != wpos || gok != wok {
				t.Fatalf("⟨%v,%d⟩ (page=%d): resident (%v,%d,%v), on-disk (%v,%d,%v)",
					addr, blk, r.params.PageSize, ge, gpos, gok, we, wpos, wok)
			}
		}
		for _, e := range entries {
			check(e.Key.Addr, e.Key.Blk)      // the key itself
			check(e.Key.Addr, e.Key.Blk+1)    // between this version and the next
			check(e.Key.Addr, e.Key.Blk-1)    // between the previous version and this
			check(e.Key.Addr, types.MaxBlock) // the latest version
			check(e.Key.Addr, 0)              // below the address's first version
		}
		// Addresses the run does not hold: below minKey, above maxKey and
		// scattered between the stored ones.
		var lowest, highest types.Address
		for i := range highest {
			highest[i] = 0xFF
		}
		check(lowest, 0)
		check(lowest, types.MaxBlock)
		check(highest, 0)
		check(highest, types.MaxBlock)
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 2000; i++ {
			var a types.Address
			rng.Read(a[:])
			check(a, rng.Uint64())
			check(a, types.MaxBlock)
		}
	}
	if !multiLayer {
		t.Fatal("no golden run has a multi-layer index: the layer descent is untested")
	}
}

// referenceBloom marshals the filter of an entry set the way runs did
// before the probe existed: one streaming SHA-256 (types.HashData) per
// entry, bits set straight into the wire layout.
func referenceBloom(entries []types.Entry, fp float64) []byte {
	data := bloom.New(len(entries), fp).Marshal()
	nbits, hashes := binary.BigEndian.Uint64(data[0:8]), binary.BigEndian.Uint64(data[8:16])
	for _, e := range entries {
		h := types.HashData(e.Key.Addr[:])
		h1, h2 := binary.BigEndian.Uint64(h[0:8]), binary.BigEndian.Uint64(h[8:16])
		for i := uint64(0); i < hashes; i++ {
			pos := (h1 + i*h2) % nbits
			data[24+((pos>>3)^7)] |= 1 << (pos & 7)
		}
	}
	binary.BigEndian.PutUint64(data[16:24], uint64(len(entries)))
	return data
}

// TestProbeMatchesAddressOnGoldenRuns: hashing an address once changes no
// answer and no byte — every golden run's filter gives the same verdict
// through MayContain and through a shared probe, for stored and random
// addresses, and its serialized bytes are what the old per-call hash
// built.
func TestProbeMatchesAddressOnGoldenRuns(t *testing.T) {
	entries, runs := goldenRuns(t)
	want := referenceBloom(entries, 0.01)
	rng := rand.New(rand.NewSource(5))
	addrs := make([]types.Address, 0, len(entries)+4000)
	for _, e := range entries {
		addrs = append(addrs, e.Key.Addr)
	}
	for i := 0; i < 4000; i++ {
		var a types.Address
		rng.Read(a[:])
		addrs = append(addrs, a)
	}
	for _, r := range runs {
		if got := r.BloomBytes(); string(got) != string(want) {
			t.Fatalf("run (page=%d): Bloom bytes differ from the per-entry reference", r.params.PageSize)
		}
		admitted := 0
		for _, a := range addrs {
			p := bloom.NewProbe(a)
			if r.MayContain(a) != r.MayContainProbe(p) {
				t.Fatalf("address %v: MayContain and MayContainProbe disagree", a)
			}
			if r.MayContainProbe(p) {
				admitted++
			}
		}
		if admitted < len(entries) || admitted == len(addrs) {
			t.Fatalf("filter admitted %d of %d addresses (%d stored): the probe is not discriminating", admitted, len(addrs), len(entries))
		}
	}
}

// damageModel adds delta to the intercept of bottom-layer model j in the
// run's .idx file.
func damageModel(t *testing.T, r *Run, j int, delta float64) {
	t.Helper()
	path := indexPath(r.dir, r.ID)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	perPage := pagefile.PerPage(r.params.PageSize, pla.ModelSize)
	off := (j/perPage)*r.params.PageSize + j%perPage*pla.ModelSize + types.CompoundKeySize + 8
	ic := math.Float64frombits(binary.BigEndian.Uint64(raw[off:]))
	binary.BigEndian.PutUint64(raw[off:], math.Float64bits(ic+delta))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDamagedModelFailsClosed: a model whose intercept is off by three
// pages — in either direction — passes Open (no digest covers the .idx
// file) and sends the search to a page that cannot hold the key. The
// search must say so with a typed corruption error naming the .idx file;
// "not found" would let the engine answer from an older run.
func TestDamagedModelFailsClosed(t *testing.T) {
	for _, dir := range []float64{+1, -1} {
		entries := genEntries(21, 300, 4)
		r := buildRun(t, entries, Params{Fanout: 4})
		perPage := int64(r.values.PerPage())
		if r.values.NumPages() < 8 {
			t.Fatalf("run has %d pages, the test needs 8", r.values.NumPages())
		}
		// A key in the middle of the file, and the model that covers it.
		victim := entries[len(entries)/2].Key
		j := searchModels(r.models[0], 0, len(r.models[0])-1, victim)
		if pmax := r.models[0][j].PMax; dir > 0 && pmax < int64(len(entries)/2)+3*perPage {
			t.Fatalf("model %d ends at %d: an intercept shift would be clamped away", j, pmax)
		}
		params, id, runDir := r.params, r.ID, r.dir
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		damageModel(t, r, j, dir*float64(3*perPage))

		r, err := Open(runDir, id, params)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer r.Close()
		_, _, found, err := r.SearchAt(victim.Addr, victim.Blk)
		var ec *types.ErrCorrupt
		if !errors.As(err, &ec) {
			t.Fatalf("shift %+.0f pages: SearchAt = (found=%v, err=%v), want a typed corruption error", 3*dir, found, err)
		}
		if filepath.Base(ec.File) != filepath.Base(indexPath(runDir, id)) {
			t.Fatalf("corruption blamed on %s, want the .idx file", ec.File)
		}
		// The scrub finds it too, and pins it to the same file.
		pinned := false
		for _, f := range Verify(runDir, id, params, false) {
			pinned = pinned || filepath.Base(f.File) == filepath.Base(indexPath(runDir, id))
		}
		if !pinned {
			t.Fatal("full scrub did not pin the damaged model to the .idx file")
		}
	}
}

// TestOpenRejectsDamagedAnchors: the parts of the .idx file Open can check
// without the keys — each layer starts at the run's minimum key and its
// anchors strictly increase.
func TestOpenRejectsDamagedAnchors(t *testing.T) {
	entries := genEntries(23, 400, 4)
	build := func() (*Run, []byte) {
		r := buildRun(t, entries, Params{Fanout: 4, PageSize: 256})
		if r.Layers() < 2 || len(r.models[0]) < 3 {
			t.Fatalf("run has %d layers and %d bottom models, the test needs 2 and 3", r.Layers(), len(r.models[0]))
		}
		raw, err := os.ReadFile(indexPath(r.dir, r.ID))
		if err != nil {
			t.Fatal(err)
		}
		return r, raw
	}
	reopen := func(r *Run, raw []byte) error {
		t.Helper()
		if err := os.WriteFile(indexPath(r.dir, r.ID), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		r2, err := Open(r.dir, r.ID, r.params)
		if err == nil {
			r2.Close()
		}
		return err
	}
	wantCorrupt := func(what string, r *Run, err error) {
		t.Helper()
		var ec *types.ErrCorrupt
		if !errors.As(err, &ec) || filepath.Base(ec.File) != filepath.Base(indexPath(r.dir, r.ID)) {
			t.Fatalf("%s: Open = %v, want a corruption error naming the .idx file", what, err)
		}
	}

	r, raw := build()
	raw[types.AddressSize-1] ^= 1 // first anchor of the bottom layer
	wantCorrupt("bottom layer not starting at minKey", r, reopen(r, raw))

	r, raw = build()
	raw[int(r.layers[1].StartPage)*256+types.AddressSize-1] ^= 1 // first anchor of layer 1
	wantCorrupt("upper layer not starting at minKey", r, reopen(r, raw))

	r, raw = build()
	copy(raw[2*pla.ModelSize:], raw[pla.ModelSize:pla.ModelSize+types.CompoundKeySize]) // model 2's anchor := model 1's
	wantCorrupt("anchors not strictly increasing", r, reopen(r, raw))

	r, raw = build()
	wantCorrupt("truncated index", r, reopen(r, raw[:len(raw)-256]))
}
