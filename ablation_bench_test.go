// Ablation benchmarks for the run-layer design choices that README's
// "Read path" and "Provenance path" sections describe, and ROADMAP
// items 3 (the cost of a run build) and 9 (the Merkle file) measure:
//
//   - Bloom filters: read cost with and without run filters;
//   - Page size: the ε = records/page/2 trade-off between prediction
//     slack and page fan-in. This is a run-layer ablation only: stores
//     always use 4 KiB pages (a constant, not an option), so only
//     run.Params.PageSize varies it;
//   - Merkle fanout m: run-construction cost.
//
// Run with: go test -bench 'Ablation' -benchmem
package cole_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cole/internal/run"
	"cole/internal/types"
)

// ablationEntries builds a realistic sorted run input: many addresses
// with skewed version counts.
func ablationEntries(n int) []types.Entry {
	r := rand.New(rand.NewSource(9))
	var out []types.Entry
	for len(out) < n {
		addr := types.AddressFromUint64(r.Uint64() % uint64(n/4+1))
		blk := uint64(r.Intn(64))
		for v := 0; v < 1+r.Intn(8) && len(out) < n; v++ {
			out = append(out, types.Entry{
				Key:   types.CompoundKey{Addr: addr, Blk: blk},
				Value: types.ValueFromUint64(blk),
			})
			blk += 1 + uint64(r.Intn(16))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	// Dedup (same addr may be drawn twice).
	dedup := out[:0]
	for i, e := range out {
		if i == 0 || e.Key != out[i-1].Key {
			dedup = append(dedup, e)
		}
	}
	return dedup
}

// BenchmarkAblationRunBuild measures end-to-end run construction (value +
// index + Merkle files) at three Merkle fanouts.
func BenchmarkAblationRunBuild(b *testing.B) {
	entries := ablationEntries(50_000)
	for _, m := range []int{2, 4, 16} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var models int64
			for i := 0; i < b.N; i++ {
				dir := b.TempDir()
				r, err := run.Build(dir, 1, int64(len(entries)), run.Params{Fanout: m}, run.NewSliceIterator(entries))
				if err != nil {
					b.Fatal(err)
				}
				models = r.Models()
				r.Close()
			}
			b.ReportMetric(float64(models), "models")
		})
	}
}

// BenchmarkAblationBloom measures the value of per-run Bloom filters for
// absent-address lookups (the dominant case in multi-run level scans).
func BenchmarkAblationBloom(b *testing.B) {
	entries := ablationEntries(50_000)
	dir := b.TempDir()
	r, err := run.Build(dir, 1, int64(len(entries)), run.Params{Fanout: 4}, run.NewSliceIterator(entries))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()

	b.Run("absent-with-bloom", func(b *testing.B) {
		skipped := 0
		for i := 0; i < b.N; i++ {
			// Addresses far outside the populated id space.
			addr := types.AddressFromUint64(1<<40 + uint64(i))
			if !r.MayContain(addr) {
				skipped++
				continue
			}
			if _, _, found, err := r.SearchAt(addr, types.MaxBlock); err != nil || found {
				b.Fatal(err, found)
			}
		}
		if b.N > 0 {
			b.ReportMetric(100*float64(skipped)/float64(b.N), "%skipped")
		}
	})
	b.Run("absent-without-bloom", func(b *testing.B) {
		// Bypass the filter by probing the predecessor path via GetAt on
		// present prefixes: approximate the no-bloom cost with a full
		// learned-index descent for a present address (the filter cannot
		// skip those).
		present := entries[len(entries)/2].Key.Addr
		for i := 0; i < b.N; i++ {
			if _, _, found, err := r.SearchAt(present, types.MaxBlock); err != nil || !found {
				b.Fatal(err, found)
			}
		}
	})
}

// BenchmarkAblationPageSize sweeps the page size, which sets ε on both
// value and index files: bigger pages → looser models but fewer, larger
// reads. It builds runs directly; a store cannot be opened with another
// page size.
func BenchmarkAblationPageSize(b *testing.B) {
	entries := ablationEntries(50_000)
	for _, ps := range []int{512, 2048, 4096, 16384} {
		b.Run(fmt.Sprintf("page=%d", ps), func(b *testing.B) {
			dir := b.TempDir()
			r, err := run.Build(dir, 1, int64(len(entries)), run.Params{Fanout: 4, PageSize: ps}, run.NewSliceIterator(entries))
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := entries[rng.Intn(len(entries))]
				_, _, found, err := r.SearchAt(e.Key.Addr, e.Key.Blk)
				if err != nil || !found {
					b.Fatal(err, found)
				}
			}
			b.StopTimer()
			_, idxBytes := r.SizeOnDisk()
			b.ReportMetric(float64(idxBytes), "idx+mrk-bytes")
			b.ReportMetric(float64(r.Models()), "models")
		})
	}
}
