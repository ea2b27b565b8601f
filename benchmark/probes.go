package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cole/internal/bloom"
	"cole/internal/mbtree"
	"cole/internal/merge"
	"cole/internal/mht"
	"cole/internal/pagefile"
	"cole/internal/pla"
	run "cole/internal/run"
	"cole/internal/types"
	"cole/internal/vfs"
	"cole/internal/workload"
)

// probeTree is the number of entries of the MB-tree and run-build
// fixtures: one full L0 group.
const probeTree = 4096

// probeSizes are the fixed call counts of the probes. Every probe runs on
// one goroutine, after the rounds, so it disturbs no end-to-end number.
type probeSizes struct {
	records int // records of the page-file and Merkle-file fixtures
	calls   int // calls of a nanosecond-scale function
	lookups int // calls of a microsecond-scale function
	proofs  int // proofs built and verified
}

// probeSizesFor returns the probe sizes; divisor > 1 is the smoke scale.
func probeSizesFor(divisor int) probeSizes {
	return probeSizes{
		records: max(200_000/divisor, 2*probeTree),
		calls:   max(100_000/divisor, 1000),
		lookups: max(10_000/divisor, 500),
		proofs:  max(2_000/divisor, 100),
	}
}

// perCall times n calls of f and returns nanoseconds per call.
func perCall(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// probes measures single modules through their exported functions: on the
// workload's own closed store where the module's cost depends on the data
// (run, bloom false positives), on a fixture of the engine's default
// geometry otherwise. dir is scratch space for the fixtures.
func probes(set func(string, float64), in *inputs, engines []engineRuns, dir string, sz probeSizes) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// A failed probe is a broken module, not a slow one: stop at the first.
	check := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}

	entries := make([]types.Entry, probeTree)
	for i := range entries {
		entries[i] = types.Entry{Key: types.CompoundKey{Addr: in.addrs[i], Blk: 1}, Value: encodeValue(uint32(i), 1)}
	}
	sorted := append([]types.Entry(nil), entries...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Key.Less(sorted[b].Key) })

	probeMBTree(set, check, sz, entries, sorted)
	probeBloom(set, sz, in, engines)
	probeVFS(set, check, dir)
	probeMerge(set, sz)
	probeWorkload(set, check, sz, in)
	if err != nil {
		return err
	}
	probeFiles(set, check, sz, dir)
	if err != nil {
		return err
	}
	probeRun(set, check, sz, in, engines, sorted, dir)
	return err
}

func probeMBTree(set func(string, float64), check func(error), sz probeSizes, entries, sorted []types.Entry) {
	t, err := mbtree.New(mbtree.DefaultFanout)
	check(err)
	if err != nil {
		return
	}
	set("mbtree.insert_ns", perCall(len(entries), func(i int) { t.Insert(entries[i].Key, entries[i].Value) }))
	set("mbtree.predecessor_ns", perCall(sz.calls, func(i int) {
		t.Predecessor(types.MaxKeyFor(entries[i%len(entries)].Key.Addr))
	}))
	t.RootHash()
	set("mbtree.prove_range_us", perCall(sz.proofs, func(i int) {
		a := entries[i%len(entries)].Key.Addr
		_, _, err := t.ProveRange(types.ProvLowerKey(a, 1), types.ProvUpperKey(a, provWindow))
		check(err)
	})/1e3)

	bulk, _ := mbtree.New(mbtree.DefaultFanout)
	t0 := time.Now()
	bulk.InsertSorted(sorted)
	set("mbtree.insert_sorted_ns", float64(time.Since(t0))/float64(len(sorted)))

	// The cost a commit pays: the root hash after one block's inserts into
	// a half-full group.
	half, _ := mbtree.New(mbtree.DefaultFanout)
	for _, e := range entries[:probeTree/2] {
		half.Insert(e.Key, e.Value)
	}
	half.RootHash()
	var hashing time.Duration
	blocks := probeTree / 2 / blockTx
	for b := 0; b < blocks; b++ {
		for _, e := range entries[probeTree/2+b*blockTx:][:blockTx] {
			half.Insert(e.Key, e.Value)
		}
		t0 := time.Now()
		half.RootHash()
		hashing += time.Since(t0)
	}
	set("mbtree.root_hash_us", float64(hashing)/float64(blocks)/1e3)
}

func probeBloom(set func(string, float64), sz probeSizes, in *inputs, engines []engineRuns) {
	const filters = 10
	var f *bloom.Filter
	set("bloom.add_ns", perCall(filters*probeTree, func(i int) {
		if i%probeTree == 0 {
			f = bloom.New(probeTree, 0.01)
		}
		f.Add(in.addrs[i%probeTree])
	}))
	hits := 0
	set("bloom.may_contain_ns", perCall(sz.calls, func(i int) {
		if f.MayContain(in.addrs[i%(2*probeTree)]) { // half present, half not
			hits++
		}
	}))
	// Never-written addresses against every real run's filter: each "may
	// contain" is a descent the read path would have wasted.
	absent := in.addrs[in.spec.keys:]
	var asked, wasted float64
	for _, e := range engines {
		for _, r := range e.runs {
			for _, a := range absent[:min(len(absent), 8192)] {
				asked++
				if r.MayContain(a) {
					wasted++
				}
			}
		}
	}
	set("bloom.fp_rate_measured", ratio(wasted, asked))
}

func probeVFS(set func(string, float64), check func(error), dir string) {
	set("vfs.fsync_us", fsyncUs(dir))
	f, err := vfs.OS{}.Create(filepath.Join(dir, "vfs.probe"))
	check(err)
	if err != nil {
		return
	}
	chunk := make([]byte, 1<<20)
	ns := perCall(32, func(int) {
		_, err := f.Write(chunk)
		check(err)
	})
	set("vfs.write_mb_s", float64(len(chunk))/1e6/(ns/1e9))
	check(f.Close())
}

func probeMerge(set func(string, float64), sz probeSizes) {
	s := merge.New(2)
	set("merge.run_noop_ns", perCall(sz.calls, func(int) { s.Run(func() {}, merge.PriorityFlush, nil) }))
}

func probeWorkload(set func(string, float64), check func(error), sz probeSizes, in *inputs) {
	g, err := workload.New(workload.Spec{Name: "zipfian", Keys: in.spec.keys, Seed: 1}.WithDefaults())
	check(err)
	if err != nil {
		return
	}
	set("workload.next_ns", perCall(sz.calls, func(int) { g.Next() }))
}

// probeFiles measures the page file, the learned-index builder and the
// Merkle file on fixtures of sz.records entries in the default geometry.
func probeFiles(set func(string, float64), check func(error), sz probeSizes, dir string) {
	const pageSize = pagefile.DefaultPageSize
	keys := make([]types.CompoundKey, sz.records)
	for i := range keys {
		keys[i] = types.CompoundKey{Addr: workload.Key(uint64(i)), Blk: 1}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].Less(keys[b]) })

	// pagefile
	path := filepath.Join(dir, "pagefile.probe")
	w, err := pagefile.CreateWriter(path, pageSize, types.EntrySize)
	check(err)
	if err != nil {
		return
	}
	rec := make([]byte, types.EntrySize)
	t0 := time.Now()
	for _, k := range keys {
		types.EncodeEntry(rec, types.Entry{Key: k})
		check(w.Append(rec))
	}
	check(w.Finish())
	set("pagefile.append_ns_per_rec", float64(time.Since(t0))/float64(sz.records))

	pf, err := pagefile.Open(path, pageSize, types.EntrySize, int64(sz.records), 16)
	check(err)
	if err != nil {
		return
	}
	perPage := int64(pf.PerPage())
	set("pagefile.record_at_hit_ns", perCall(sz.calls, func(i int) {
		check(pf.RecordAt(int64(i)%perPage, rec)) // one page, cached after the first call
	}))
	set("pagefile.record_at_miss_us", perCall(sz.lookups, func(i int) {
		check(pf.RecordAt(int64(i)*perPage*37%int64(sz.records), rec)) // a page the 16-page cache no longer holds
	})/1e3)
	sr := pf.SequentialReader(pagefile.DefaultReadaheadPages)
	t0 = time.Now()
	for {
		_, ok, err := sr.Next()
		check(err)
		if !ok || err != nil {
			break
		}
	}
	set("pagefile.seq_read_mb_s", float64(pf.NumPages()*pageSize)/1e6/time.Since(t0).Seconds())
	check(pf.Close())

	// pla
	var models []pla.Model
	b, err := pla.NewBuilder(pagefile.Epsilon(pageSize, types.EntrySize), func(m pla.Model) error {
		models = append(models, m)
		return nil
	})
	check(err)
	if err != nil {
		return
	}
	t0 = time.Now()
	for i, k := range keys {
		check(b.Add(k, int64(i)))
	}
	check(b.Finish())
	set("pla.fit_ns_per_key", float64(time.Since(t0))/float64(sz.records))
	set("pla.models_per_kentry", float64(len(models))*1000/float64(sz.records))
	n := min(len(models), pagefile.PerPage(pageSize, pla.ModelSize))
	page := make([]byte, pageSize)
	for i, m := range models[:n] {
		m.Encode(page[i*pla.ModelSize:])
	}
	covered := keys[:models[n-1].PMax+1]
	set("pla.search_page_ns", perCall(sz.calls, func(i int) {
		pla.SearchPage(page, n, covered[i*31%len(covered)])
	}))

	// mht
	path = filepath.Join(dir, "mht.probe")
	leaves := make([]types.Hash, sz.records)
	for i := range leaves {
		copy(leaves[i][:], keys[i].Addr[:])
	}
	mw, err := mht.CreateWriter(path, int64(sz.records), 4)
	check(err)
	if err != nil {
		return
	}
	t0 = time.Now()
	for _, l := range leaves {
		check(mw.Add(l))
	}
	_, err = mw.Finish()
	check(err)
	set("mht.add_ns_per_leaf", float64(time.Since(t0))/float64(sz.records))
	mf, err := mht.Open(path, int64(sz.records), 4)
	check(err)
	if err != nil {
		return
	}
	proofs := make([]*mht.RangeProof, sz.proofs)
	reads := mf.HashReads()
	set("mht.prove_range_us", perCall(sz.proofs, func(i int) {
		lo := int64(i) * 97 % int64(sz.records-3)
		proofs[i], err = mf.ProveRange(lo, lo+2)
		check(err)
	})/1e3)
	set("mht.hash_reads_per_prove", float64(mf.HashReads()-reads)/float64(sz.proofs))
	if err == nil {
		set("mht.verify_range_us", perCall(sz.proofs, func(i int) {
			_, err := mht.VerifyRange(proofs[i], leaves[proofs[i].Lo:proofs[i].Hi+1])
			check(err)
		})/1e3)
	}
	check(mf.Close())
}

// runPages is how many pages, cached or not, point reads of r have touched.
func runPages(r *run.Run) int64 {
	v, i := r.IOStats()
	return v.PageReads + v.CacheHits + i.PageReads + i.CacheHits
}

// probeRun measures the run layer: building (an L0 flush's worth, then a
// T=4 merge of such runs) on fixtures, searching on the store's own
// largest run.
func probeRun(set func(string, float64), check func(error), sz probeSizes, in *inputs, engines []engineRuns, sorted []types.Entry, dir string) {
	const T = 4
	params := run.Params{Fanout: 4}
	built := make([]*run.Run, 0, T)
	defer func() {
		for _, r := range built {
			_ = r.Close() // fixtures, removed with dir
		}
	}()
	t0 := time.Now()
	for j := 0; j < T; j++ {
		// Same addresses at another height: globally unique compound keys.
		es := append([]types.Entry(nil), sorted...)
		for i := range es {
			es[i].Key.Blk = uint64(j + 1)
		}
		r, err := run.Build(dir, uint64(j+1), int64(len(es)), params, run.NewSliceIterator(es))
		check(err)
		if err != nil {
			return
		}
		built = append(built, r)
	}
	set("run.build_ns_per_entry", float64(time.Since(t0))/float64(T*len(sorted)))
	t0 = time.Now()
	merged, err := run.Build(dir, T+1, int64(T*len(sorted)), params, run.MergeRuns(built))
	check(err)
	if err != nil {
		return
	}
	built = append(built, merged)
	set("run.merge_build_ns_per_entry", float64(time.Since(t0))/float64(T*len(sorted)))

	var big *run.Run
	var bigDir string
	for _, e := range engines {
		for _, r := range e.runs {
			if big == nil || r.Count() > big.Count() {
				big, bigDir = r, e.dir
			}
		}
	}
	if big == nil {
		check(fmt.Errorf("the closed store has no runs to probe"))
		return
	}
	set("run.layers_bottom", float64(big.Layers()))
	set("run.open_ms", perCall(5, func(int) {
		r, err := run.Open(bigDir, big.ID, run.Params{})
		check(err)
		if err == nil {
			check(r.Close())
		}
	})/1e6)

	// Addresses the run holds, with the height of one of their versions.
	present := make([]types.CompoundKey, sz.lookups)
	for i := range present {
		e, err := big.EntryAt(int64(i) * 7919 % big.Count())
		check(err)
		present[i] = e.Key
	}
	pages := runPages(big)
	set("run.search_hit_us", perCall(sz.lookups, func(i int) {
		_, _, found, err := big.SearchAt(present[i].Addr, types.MaxBlock)
		check(err)
		if !found && err == nil {
			check(fmt.Errorf("run %d: address at a known position not found", big.ID))
		}
	})/1e3)
	set("run.search_pages_per_op", float64(runPages(big)-pages)/float64(sz.lookups))
	absent := in.addrs[in.spec.keys:]
	set("run.search_miss_us", perCall(sz.lookups, func(i int) {
		_, _, found, err := big.SearchAt(absent[i%len(absent)], types.MaxBlock)
		check(err)
		if found {
			check(fmt.Errorf("run %d: never-written address found", big.ID))
		}
	})/1e3)

	results := make([]*run.ProvResult, sz.proofs)
	window := func(i int) (uint64, uint64) {
		lo := max(present[i].Blk, provWindow/2) - provWindow/2 + 1
		return lo, lo + provWindow - 1
	}
	set("run.prov_search_us", perCall(sz.proofs, func(i int) {
		lo, hi := window(i)
		results[i], err = big.ProvSearch(present[i].Addr, lo, hi)
		check(err)
	})/1e3)
	if err != nil {
		return
	}
	root := big.MHTRoot()
	set("run.verify_prov_us", perCall(sz.proofs, func(i int) {
		lo, hi := window(i)
		_, err := run.VerifyProv(root, present[i].Addr, lo, hi, results[i])
		check(err)
	})/1e3)
}
