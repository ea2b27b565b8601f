// Command coledb is a small CLI over a COLE store directory: put state
// updates block by block, read latest or historical values, and run
// verified provenance queries.
//
// Usage:
//
//	coledb -dir ledger put <height> <addr=value> [<addr=value> ...]
//	coledb -dir ledger get <addr>
//	coledb -dir ledger getbatch <addr> [<addr> ...]
//	coledb -dir ledger getat <addr> <height>
//	coledb -dir ledger prov <addr> <blkLo> <blkHi>
//	coledb -dir ledger stat [-json]
//	coledb -dir ledger dump
//	coledb -dir ledger reshard <shards>
//	coledb -dir ledger fsck [-fast]
//
// Addresses and values are free-form strings (hashed/padded to their
// fixed widths). -shards N partitions a fresh store directory across N
// engines committed in parallel; the count is persisted per directory,
// reopening adopts it automatically, and existing unsharded directories
// keep working as single-shard stores.
//
// stat prints what an open store knows about itself: height and
// checkpoint, shard layout, entries, runs and levels, disk bytes, the
// page-cache budget, Hstate, and on a multi-shard store the per-shard
// balance. Operation counters and latency histograms count from the
// moment a process opens the store, so each coledb command would see
// them empty; read them from Store.Stats() or /metrics in the process
// that does the work. stat -json emits the same facts machine-readably.
// -metrics-addr serves live Prometheus metrics for every open store at
// /metrics (plus pprof under /debug/pprof/) for the duration of any
// command.
//
// reshard rewrites the (closed, cleanly flushed) store to a new shard
// count offline — one sort-merge of the immutable runs routed to every
// destination shard, never a replay — and commits atomically; stat's per-shard balance table
// shows when the rewrite is worth it. Resharding starts a new root
// epoch: per-key answers are unchanged, but the combined digest changes
// with the partition count.
//
// fsck scrubs a closed store's on-disk files and reports every
// integrity defect pinned to a file (and page, where attributable). The
// full scrub re-walks every entry, recomputes every Merkle node, and
// proves learned-index coverage; -fast checks only metadata checksums,
// file geometry, and stored Merkle roots. Exit status: 0 clean, 1
// damaged, 2 operational error (not a store, store in use, usage).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"cole"
)

func main() {
	var (
		dir     = flag.String("dir", "coledb", "store directory")
		async   = flag.Bool("async", false, "use the asynchronous merge (COLE*)")
		memB    = flag.Int("memcap", 4096, "in-memory level capacity B")
		ratio   = flag.Int("ratio", 4, "size ratio T")
		m       = flag.Int("fanout", 4, "MHT fanout m")
		shards  = flag.Int("shards", 0, "shard count for a fresh store (0 = adopt the directory's persisted count)")
		workers = flag.Int("merge-workers", 0, "background merge worker budget shared across all shards (0 = GOMAXPROCS)")
		metrics = flag.String("metrics-addr", "", "serve Prometheus metrics and pprof on this address (e.g. localhost:9090) while the command runs")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		failCode(2, "missing command: put | get | getbatch | getat | prov | dump | stat | reshard | fsck")
	}

	if *metrics != "" {
		addr, shutdown, err := cole.ServeMetrics(*metrics)
		if err != nil {
			fail("metrics: %v", err)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "metrics at http://%s/metrics (pprof at /debug/pprof/)\n", addr)
	}

	// fsck runs before (and instead of) the store open: the scrub reads
	// the directory's files directly, holding the store lock so a live
	// process fails the check loudly instead of producing phantom damage.
	if args[0] == "fsck" {
		fast := false
		switch {
		case len(args) == 1:
		case len(args) == 2 && args[1] == "-fast":
			fast = true
		default:
			failCode(2, "usage: fsck [-fast]")
		}
		findings, notes, err := cole.VerifyStore(*dir, fast)
		if err != nil {
			failCode(2, "fsck: %v", err)
		}
		for _, n := range notes {
			fmt.Fprintf(os.Stderr, "note: %s\n", n)
		}
		if len(findings) > 0 {
			for _, f := range findings {
				fmt.Println(f)
			}
			failCode(1, "fsck: %d finding(s); restore the files above from a backup or replica", len(findings))
		}
		mode := "full"
		if fast {
			mode = "fast"
		}
		fmt.Printf("fsck (%s): %s is clean\n", mode, *dir)
		return
	}

	// reshard runs before (and instead of) the store open: it requires
	// exclusive ownership of the closed directory.
	if args[0] == "reshard" {
		if len(args) != 2 {
			fail("reshard <shards>")
		}
		target := int(parseU64(args[1]))
		rep, err := cole.Reshard(*dir, target, cole.ReshardOptions{MemCapacity: *memB})
		if err != nil {
			fail("reshard: %v", err)
		}
		fmt.Printf("resharded %d -> %d shards (generation %d) at height %d\n",
			rep.FromShards, rep.ToShards, rep.Generation, rep.Height)
		fmt.Printf("rewrote %d entries (%.1f MB) in %s (%.1f MB/s)\n",
			rep.Entries, float64(rep.Bytes)/(1<<20), rep.Elapsed.Round(time.Millisecond), rep.MBPerSec())
		for j, c := range rep.PerShard {
			fmt.Printf("  shard %02d: %d entries\n", j, c)
		}
		if rep.ToShards > 1 {
			fmt.Printf("imbalance: %.2fx (hottest shard / mean)\n", rep.Imbalance)
		}
		fmt.Println("note: the combined root digest changed with the partition count (new root epoch)")
		return
	}

	opts := cole.Options{
		Dir: *dir, AsyncMerge: *async, MemCapacity: *memB, SizeRatio: *ratio, Fanout: *m,
		Shards: *shards, MergeWorkers: *workers,
	}

	store, err := cole.Open(opts)
	if err != nil {
		fail("open: %v", err)
	}
	defer store.Close()

	switch args[0] {
	case "put":
		if len(args) < 3 {
			fail("put <height> <addr=value> ...")
		}
		h := parseU64(args[1])
		// The command's pairs form one block, so they land as one batch:
		// pre-bucketed per shard, one engine call per bucket.
		batch := make([]cole.Update, 0, len(args)-2)
		for _, kv := range args[2:] {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				fail("bad pair %q, want addr=value", kv)
			}
			batch = append(batch, cole.Update{
				Addr:  cole.AddressFromString(parts[0]),
				Value: cole.ValueFromBytes([]byte(parts[1])),
			})
		}
		if err := store.BeginBlock(h); err != nil {
			fail("begin block: %v", err)
		}
		if err := store.PutBatch(batch); err != nil {
			fail("put: %v", err)
		}
		root, err := store.Commit()
		if err != nil {
			fail("commit: %v", err)
		}
		if err := store.FlushAll(); err != nil {
			fail("flush: %v", err)
		}
		fmt.Printf("block %d committed, Hstate=%s\n", h, root)
	case "get":
		if len(args) != 2 {
			fail("get <addr>")
		}
		v, ok, err := store.Get(cole.AddressFromString(args[1]))
		if err != nil {
			fail("get: %v", err)
		}
		if !ok {
			fmt.Println("(not found)")
			return
		}
		fmt.Printf("%s\n", renderValue(v))
	case "getbatch":
		if len(args) < 2 {
			fail("getbatch <addr> [<addr> ...]")
		}
		addrs := make([]cole.Address, len(args)-1)
		for i, a := range args[1:] {
			addrs[i] = cole.AddressFromString(a)
		}
		// A snapshot pins one committed height so every address of the
		// batch is answered from the same consistent state, even on a
		// multi-shard store.
		snap := store.Snapshot()
		defer snap.Release()
		res, err := snap.GetBatch(addrs)
		if err != nil {
			fail("getbatch: %v", err)
		}
		fmt.Printf("snapshot at block %d (Hstate %s)\n", snap.Height(), snap.Root())
		for i, r := range res {
			if !r.Found {
				fmt.Printf("  %s: (not found)\n", args[i+1])
				continue
			}
			fmt.Printf("  %s: %s (written at block %d)\n", args[i+1], renderValue(r.Value), r.Blk)
		}
	case "getat":
		if len(args) != 3 {
			fail("getat <addr> <height>")
		}
		v, blk, ok, err := store.GetAt(cole.AddressFromString(args[1]), parseU64(args[2]))
		if err != nil {
			fail("getat: %v", err)
		}
		if !ok {
			fmt.Println("(not found)")
			return
		}
		fmt.Printf("%s (written at block %d)\n", renderValue(v), blk)
	case "prov":
		if len(args) != 4 {
			fail("prov <addr> <blkLo> <blkHi>")
		}
		addr := cole.AddressFromString(args[1])
		lo, hi := parseU64(args[2]), parseU64(args[3])
		_, proof, err := store.Prov(addr, lo, hi)
		if err != nil {
			fail("prov: %v", err)
		}
		root := store.RootDigest()
		verified, err := proof.Verify(root, addr, lo, hi)
		if err != nil {
			fail("verification FAILED: %v", err)
		}
		fmt.Printf("%d versions in [%d,%d], proof %d bytes (shard %d of %d), verified against Hstate %s\n",
			len(verified), lo, hi, proof.Size(), store.ShardOf(addr), store.Shards(), root)
		for _, v := range verified {
			fmt.Printf("  block %6d: %s\n", v.Blk, renderValue(v.Value))
		}
	case "dump":
		if len(args) != 1 {
			fail("dump takes no arguments")
		}
		// One pinned snapshot: the dump is a consistent full export
		// (every retained version of every address, sorted by
		// ⟨address, block⟩) even while the store keeps committing.
		n, err := store.Export(func(a cole.Address, blk uint64, v cole.Value) error {
			_, werr := fmt.Printf("%s %d %s\n", a, blk, renderValue(v))
			return werr
		})
		if err != nil {
			fail("dump: %v", err)
		}
		fmt.Fprintf(os.Stderr, "%d entries\n", n)
	case "stat":
		sb := store.Storage()
		_, budget := store.PageCacheBytes()
		if len(args) > 1 && args[1] == "-json" {
			printStatJSON(store, sb, budget)
			return
		}
		fmt.Printf("height:      %d (checkpoint %d)\n", store.Height(), store.CheckpointHeight())
		fmt.Printf("shards:      %d (reshard generation %d)\n", store.Shards(), store.Generation())
		fmt.Printf("entries:     %d in %d runs across %d levels\n", sb.Entries, sb.Runs, sb.Levels)
		fmt.Printf("disk:        %d data bytes + %d index bytes\n", sb.DataBytes, sb.IndexBytes)
		fmt.Printf("page cache:  %d KiB budget (value pages; indexes are resident)\n", budget>>10)
		fmt.Printf("Hstate:      %s\n", store.RootDigest())
		if shards := store.ShardStats(); len(shards) > 1 {
			var totalE, totalB, maxE, maxB int64
			for _, ss := range shards {
				totalE += ss.Entries
				totalB += ss.Bytes
				maxE = max(maxE, ss.Entries)
				maxB = max(maxB, ss.Bytes)
			}
			fmt.Printf("balance:     per-shard entries / disk bytes\n")
			for i, ss := range shards {
				share := 0.0
				if totalE > 0 {
					share = 100 * float64(ss.Entries) / float64(totalE)
				}
				fmt.Printf("  shard %02d:  %8d (%5.1f%%)  %10d\n", i, ss.Entries, share, ss.Bytes)
			}
			n := int64(len(shards))
			imbE, imbB := 0.0, 0.0
			if totalE > 0 {
				imbE = float64(maxE*n) / float64(totalE)
			}
			if totalB > 0 {
				imbB = float64(maxB*n) / float64(totalB)
			}
			fmt.Printf("imbalance:   %.2fx entries, %.2fx bytes (hottest shard / mean; 1.00 = even)\n", imbE, imbB)
			if imbE > 1.5 || imbB > 1.5 {
				fmt.Printf("hint:        the layout is lopsided; `coledb -dir %s reshard <n>` rewrites it offline\n", *dir)
			}
		}
	default:
		fail("unknown command %q", args[0])
	}
}

// shardShape is one shard's line of stat -json: what an open store
// knows about the shard without having served any traffic.
type shardShape struct {
	Entries int64
	Bytes   int64
}

// printStatJSON is the machine-readable form of stat.
func printStatJSON(store *cole.Store, sb cole.StorageBreakdown, cacheBudget int64) {
	outDoc := struct {
		Height      uint64                `json:"height"`
		Checkpoint  uint64                `json:"checkpoint"`
		Shards      int                   `json:"shards"`
		Generation  uint64                `json:"generation"`
		Hstate      string                `json:"hstate"`
		Storage     cole.StorageBreakdown `json:"storage"`
		CacheBudget int64                 `json:"page_cache_budget_bytes"`
		PerShard    []shardShape          `json:"per_shard,omitempty"`
	}{
		Height:      store.Height(),
		Checkpoint:  store.CheckpointHeight(),
		Shards:      store.Shards(),
		Generation:  store.Generation(),
		Hstate:      fmt.Sprint(store.RootDigest()),
		Storage:     sb,
		CacheBudget: cacheBudget,
	}
	if ss := store.ShardStats(); len(ss) > 1 {
		for _, s := range ss {
			outDoc.PerShard = append(outDoc.PerShard, shardShape{Entries: s.Entries, Bytes: s.Bytes})
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(outDoc); err != nil {
		fail("stat: %v", err)
	}
}

func renderValue(v cole.Value) string {
	// Print as text when the value is printable, else hex.
	end := len(v)
	for end > 0 && v[end-1] == 0 {
		end--
	}
	trimmed := v[:end]
	for _, b := range trimmed {
		if b < 0x20 || b > 0x7e {
			return v.String()
		}
	}
	if len(trimmed) == 0 {
		return v.String()
	}
	return string(trimmed)
}

func parseU64(s string) uint64 {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		fail("bad number %q", s)
	}
	return v
}

func fail(format string, args ...interface{}) { failCode(1, format, args...) }

func failCode(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}
