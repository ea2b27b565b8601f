package run_test

import (
	"math/rand"
	"sort"
	"testing"

	"cole/internal/run"
	"cole/internal/types"
)

// flushEntries is a flush-shaped run input: n uniformly random addresses,
// one version each, at heights up to 64, sorted by compound key.
func flushEntries(seed int64, n int) []types.Entry {
	r := rand.New(rand.NewSource(seed))
	out := make([]types.Entry, n)
	for i := range out {
		r.Read(out[i].Key.Addr[:])
		out[i].Key.Blk = 1 + uint64(r.Intn(64))
		r.Read(out[i].Value[:])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return out
}

// BenchmarkFlushBuild times the build of an L0 flush in the ingest
// workload's shape: 4 096 uniformly random addresses through run.Build
// with the engine's default fanout, reported per entry
// (`go test -run '^$' -bench FlushBuild ./internal/run`).
func BenchmarkFlushBuild(b *testing.B) {
	es := flushEntries(1, 4096)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := run.Build(dir, uint64(i), int64(len(es)), run.Params{Fanout: 4}, run.NewSliceIterator(es))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := r.Remove(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(es)), "ns/entry")
}

// BenchmarkMergeBuild times a 4-way sort-merge rebuild of
// version-clustered runs — the level-merge data path
// (`go test -bench MergeBuild ./internal/run`).
func BenchmarkMergeBuild(b *testing.B) {
	params := run.Params{Fanout: 4}
	dir := b.TempDir()
	const nAddrs, versions, ways = 20000, 8, 4
	addrs := make([]types.Address, nAddrs)
	for i := range addrs {
		addrs[i] = types.AddressFromUint64(uint64(i))
	}
	sort.Slice(addrs, func(i, j int) bool {
		return types.CompoundKey{Addr: addrs[i]}.Less(types.CompoundKey{Addr: addrs[j]})
	})
	// Eight versions per address, striped round-robin across the source
	// runs: each source is sorted and the merged stream is globally
	// unique, the shape a full level group presents.
	perRun := make([][]types.Entry, ways)
	g := 0
	for _, a := range addrs {
		for v := 1; v <= versions; v++ {
			e := types.Entry{Key: types.CompoundKey{Addr: a, Blk: uint64(v)}, Value: types.ValueFromUint64(uint64(g))}
			perRun[g%ways] = append(perRun[g%ways], e)
			g++
		}
	}
	runs := make([]*run.Run, ways)
	for k := range runs {
		r, err := run.Build(dir, uint64(k), int64(len(perRun[k])), params, run.NewSliceIterator(perRun[k]))
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		runs[k] = r
	}
	total := int64(nAddrs * versions)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := run.MergeRuns(runs)
		r, err := run.Build(dir, uint64(100+i), total, params, it)
		if err != nil {
			b.Fatal(err)
		}
		if err := it.Err(); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(total * types.EntrySize)
		if err := r.Remove(); err != nil {
			b.Fatal(err)
		}
	}
}
