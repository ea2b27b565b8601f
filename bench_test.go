// Benchmarks regenerating every table and figure of the paper's
// evaluation (§8), plus micro-benchmarks of the core operations.
//
// Each BenchmarkFigN/BenchmarkTable1 run executes the corresponding
// experiment at laptop scale and prints the series the figure plots
// (set COLE_BENCH_SCALE=lab for larger runs, or use cmd/colebench for
// full control). Key outcomes are also exposed as benchmark metrics.
package cole_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"cole"
	"cole/internal/bench"
	"cole/internal/workload"
)

// benchCfg returns the experiment scale; figures print once per process.
func benchCfg() bench.Config {
	if os.Getenv("COLE_BENCH_SCALE") == "lab" {
		return bench.Config{
			SystemSpec: bench.SystemSpec{MemCap: 16_384, MemBytes: 8 << 20, SizeRatio: 4, Fanout: 4},
			Spec:       workload.Spec{TxPerBlock: 100, Seed: 42},
			Blocks:     400, Accounts: 10_000, Records: 10_000,
		}
	}
	return bench.Config{
		SystemSpec: bench.SystemSpec{MemCap: 1024, MemBytes: 512 << 10, SizeRatio: 4, Fanout: 4},
		Spec:       workload.Spec{TxPerBlock: 50, Seed: 42},
		Blocks:     80, Accounts: 1000, Records: 1000,
	}
}

var printOnce sync.Map

func printTable(b *testing.B, name string, t *bench.Table) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Println(t.Render())
	}
}

func heightsFor(cfg bench.Config) []int {
	return []int{cfg.Blocks / 4, cfg.Blocks}
}

// BenchmarkFig9SmallBank regenerates Figure 9: storage & throughput vs
// block height under SmallBank for MPT, COLE, COLE*, LIPP, CMI.
func BenchmarkFig9SmallBank(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig9(cfg, bench.OverallOptions{
			Heights: heightsFor(cfg), LIPPMax: cfg.Blocks / 4, CMIMax: cfg.Blocks / 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, "fig9", t)
	}
}

// BenchmarkFig10KVStore regenerates Figure 10: the same sweep under the
// YCSB KVStore workload.
func BenchmarkFig10KVStore(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig10(cfg, bench.OverallOptions{
			Heights: heightsFor(cfg), LIPPMax: cfg.Blocks / 4, CMIMax: cfg.Blocks / 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, "fig10", t)
	}
}

// BenchmarkFig11WorkloadMix regenerates Figure 11: throughput under the
// RO/RW/WO mixes.
func BenchmarkFig11WorkloadMix(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig11(cfg, heightsFor(cfg), "")
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, "fig11", t)
	}
}

// BenchmarkFig12Latency regenerates Figure 12: block-latency box plots
// (tail = max outlier) for MPT, COLE, COLE*.
func BenchmarkFig12Latency(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig12(cfg, heightsFor(cfg), "")
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, "fig12", t)
	}
}

// BenchmarkFig13SizeRatio regenerates Figure 13: the size-ratio sweep
// T ∈ {2,4,6,8,10,12} for COLE and COLE*.
func BenchmarkFig13SizeRatio(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig13(cfg, nil, "")
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, "fig13", t)
	}
}

// BenchmarkFig14Provenance regenerates Figure 14: provenance CPU time and
// proof size vs queried range for MPT, COLE, COLE*.
func BenchmarkFig14Provenance(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig14(cfg, bench.ProvOptions{Blocks: cfg.Blocks * 2, Queries: 10})
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, "fig14", t)
	}
}

// BenchmarkFig15Fanout regenerates Figure 15: provenance cost vs COLE's
// MHT fanout m at q = 16.
func BenchmarkFig15Fanout(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig15(cfg, bench.ProvOptions{Blocks: cfg.Blocks, Queries: 8})
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, "fig15", t)
	}
}

// BenchmarkTable1Complexity regenerates Table 1 with measured storage
// growth, structural depths and tail latencies.
func BenchmarkTable1Complexity(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		t, err := bench.Table1(cfg, "")
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, "table1", t)
	}
}

// BenchmarkMPTBreakdown regenerates the §1 motivating stat: the share of
// MPT storage that is actual data (paper: 2.8%).
func BenchmarkMPTBreakdown(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		t, err := bench.MPTBreakdown(cfg, "")
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, "mptbreakdown", t)
	}
}

// ---- micro-benchmarks of the public API ----

func newBenchStore(b *testing.B, async bool) *cole.Store {
	b.Helper()
	s, err := cole.Open(cole.Options{
		Dir: b.TempDir(), MemCapacity: 4096, SizeRatio: 4, Fanout: 4, AsyncMerge: async,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkPut measures write throughput through the public API (one
// block per 100 puts), sync vs async merge.
func BenchmarkPut(b *testing.B) {
	for _, mode := range []struct {
		name  string
		async bool
	}{{"sync", false}, {"async", true}} {
		b.Run(mode.name, func(b *testing.B) {
			s := newBenchStore(b, mode.async)
			height := uint64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%100 == 0 {
					if height > 0 {
						if _, err := s.Commit(); err != nil {
							b.Fatal(err)
						}
					}
					height++
					if err := s.BeginBlock(height); err != nil {
						b.Fatal(err)
					}
				}
				addr := cole.AddressFromString(fmt.Sprintf("acct-%d", i%2000))
				if err := s.Put(addr, cole.ValueFromUint64(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if height > 0 {
				if _, err := s.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGet measures point-lookup latency over a multi-level store.
func BenchmarkGet(b *testing.B) {
	s := newBenchStore(b, false)
	const addrs = 2000
	for h := uint64(1); h <= 100; h++ {
		if err := s.BeginBlock(h); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			addr := cole.AddressFromString(fmt.Sprintf("acct-%d", (int(h)*100+j)%addrs))
			if err := s.Put(addr, cole.ValueFromUint64(h)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := cole.AddressFromString(fmt.Sprintf("acct-%d", i%addrs))
		if _, _, err := s.Get(addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProvQueryAndVerify measures a verified 16-block provenance
// query end to end.
func BenchmarkProvQueryAndVerify(b *testing.B) {
	s := newBenchStore(b, false)
	hot := cole.AddressFromString("hot")
	const blocks = 300
	for h := uint64(1); h <= blocks; h++ {
		if err := s.BeginBlock(h); err != nil {
			b.Fatal(err)
		}
		if err := s.Put(hot, cole.ValueFromUint64(h)); err != nil {
			b.Fatal(err)
		}
		if err := s.Put(cole.AddressFromString(fmt.Sprintf("bg-%d", h%500)), cole.ValueFromUint64(h)); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	root := s.RootDigest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(blocks - 16 + 1)
		_, proof, err := s.Prov(hot, lo, blocks)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := proof.Verify(root, hot, lo, blocks); err != nil {
			b.Fatal(err)
		}
	}
}
