package run

import (
	"sort"
	"testing"

	"cole/internal/types"
)

// benchMergeBuild times a 4-way sort-merge rebuild of version-clustered
// runs — the level-merge data path — under the given params
// (`go test -bench MergeBuild ./internal/run`).
func benchMergeBuild(b *testing.B, params Params) {
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
	runs := make([]*Run, ways)
	for k := range runs {
		r, err := Build(dir, uint64(k), int64(len(perRun[k])), params, NewSliceIterator(perRun[k]))
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		runs[k] = r
	}
	total := int64(nAddrs * versions)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := MergeRuns(runs)
		r, err := Build(dir, uint64(100+i), total, params, it)
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

func BenchmarkMergeBuildStreaming(b *testing.B) {
	benchMergeBuild(b, Params{Fanout: 4})
}
