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
//	coledb -dir ledger trace <out.json> [<blocks> [<tx-per-block>]]
//	coledb -dir ledger reshard <shards>
//	coledb -dir ledger fsck [-fast]
//
// Addresses and values are free-form strings (hashed/padded to their
// fixed widths). -shards N partitions a fresh store directory across N
// engines committed in parallel; the count is persisted per directory,
// reopening adopts it automatically, and existing unsharded directories
// keep working as single-shard stores.
//
// stat -json emits the machine-readable form of stat, including the
// per-operation latency histograms the engine records continuously.
//
// trace drives a synthetic write workload through the store with the
// lifecycle tracer attached and writes two artifacts: a Chrome
// trace-event file at <out.json> (open in Perfetto or chrome://tracing
// — one lane per shard commit/flush/merge worker) and a JSONL event log
// next to it at <out.json>l. -metrics-addr serves live Prometheus
// metrics for every open store at /metrics (plus pprof under
// /debug/pprof/) for the duration of any command.
//
// reshard rewrites the (closed, cleanly flushed) store to a new shard
// count offline — a partitioned sort-merge of the immutable runs, never
// a replay — and commits atomically; stat's per-shard balance table
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
		failCode(2, "missing command: put | get | getbatch | getat | prov | dump | stat | trace | reshard | fsck")
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
		rep, err := cole.Reshard(*dir, target, cole.ReshardOptions{})
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

	// trace owns its store's whole open/run/close cycle: the tracer must
	// be attached at open time, and export requires the store closed.
	if args[0] == "trace" {
		if err := runTrace(opts, args[1:]); err != nil {
			fail("trace: %v", err)
		}
		return
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
		st := store.Stats()
		if len(args) > 1 && args[1] == "-json" {
			printStatJSON(store, st, sb)
			return
		}
		fmt.Printf("height:      %d (checkpoint %d)\n", store.Height(), store.CheckpointHeight())
		fmt.Printf("shards:      %d (reshard generation %d)\n", store.Shards(), store.Generation())
		fmt.Printf("entries:     %d in %d runs across %d levels\n", sb.Entries, sb.Runs, sb.Levels)
		fmt.Printf("disk:        %d data bytes + %d index bytes\n", sb.DataBytes, sb.IndexBytes)
		fmt.Printf("ops:         %d puts, %d gets (%d bloom skips), %d prov queries\n", st.Puts, st.Gets, st.BloomSkips, st.ProvQueries)
		fmt.Printf("maintenance: %d flushes (%.1f MB), %d merges (%.1f MB rewritten), %d merge waits\n",
			st.Flushes, float64(st.FlushBytes)/(1<<20), st.Merges, float64(st.MergeBytes)/(1<<20), st.MergeWaits)
		mergeMBps := 0.0
		if st.MergeNanos > 0 {
			mergeMBps = float64(st.MergeBytes) / (1 << 20) / (float64(st.MergeNanos) / 1e9)
		}
		fmt.Printf("merge rate:  %.1f MB/s inside level-merge builds, %d partition waits\n",
			mergeMBps, st.PartitionWaits)
		hitRate := 0.0
		if st.PageReads+st.CacheHits > 0 {
			hitRate = 100 * float64(st.CacheHits) / float64(st.PageReads+st.CacheHits)
		}
		resident, budget := store.PageCacheBytes()
		fmt.Printf("page cache:  %d of %d KiB resident; %d value pages read, %d hits (%.1f%% hit rate; indexes are resident, merges bypass the cache)\n",
			resident>>10, budget>>10, st.PageReads, st.CacheHits, hitRate)
		// Commit-tail health: mean vs worst commit shows whether checkpoint
		// stalls ever formed, and the stall/pace split shows whether the
		// wait was eaten as a cliff (stall) or amortized by ingest pacing.
		meanCommit := time.Duration(0)
		if st.Commits > 0 {
			meanCommit = time.Duration(st.CommitNanos / st.Commits)
		}
		fmt.Printf("commit tail: %d commits, mean %s, worst %s; stalled %s, paced %s, %d merge preemptions\n",
			st.Commits, meanCommit, time.Duration(st.MaxCommitNanos),
			time.Duration(st.StallNanos), time.Duration(st.PaceNanos), st.Preemptions)
		fmt.Printf("Hstate:      %s\n", store.RootDigest())
		if shards := store.ShardStats(); len(shards) > 1 {
			var totalE, totalB, maxE, maxB int64
			for _, ss := range shards {
				totalE += ss.Entries
				totalB += ss.Bytes
				if ss.Entries > maxE {
					maxE = ss.Entries
				}
				if ss.Bytes > maxB {
					maxB = ss.Bytes
				}
			}
			fmt.Printf("balance:     per-shard entries / disk bytes / puts / merge waits / worst commit\n")
			for i, ss := range shards {
				share := 0.0
				if totalE > 0 {
					share = 100 * float64(ss.Entries) / float64(totalE)
				}
				fmt.Printf("  shard %02d:  %8d (%5.1f%%)  %10d  %8d  %d  %s\n",
					i, ss.Entries, share, ss.Bytes, ss.Puts, ss.MergeWaits, time.Duration(ss.MaxCommitNanos))
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

// runTrace drives a synthetic write burst through the store with the
// lifecycle tracer attached, then exports the recorded timeline. It
// owns the store's full open/run/close cycle because the tracer must be
// present at open time and the ring may only be read once the store is
// closed (export assumes recording has quiesced).
func runTrace(opts cole.Options, args []string) error {
	if len(args) < 1 || len(args) > 3 {
		return fmt.Errorf("usage: trace <out.json> [<blocks> [<tx-per-block>]]")
	}
	out := args[0]
	blocks, perBlock := uint64(64), uint64(256)
	if len(args) >= 2 {
		blocks = parseU64(args[1])
	}
	if len(args) == 3 {
		perBlock = parseU64(args[2])
	}
	tracer := cole.NewTracer(0)
	opts.Trace = tracer
	store, err := cole.Open(opts)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	// Reuse a bounded keyspace so flushed runs overlap and cascade into
	// level merges — the lifecycle transitions the trace exists to show.
	keys := blocks * perBlock / 4
	if keys < 1 {
		keys = 1
	}
	base := store.Height()
	for b := uint64(1); b <= blocks; b++ {
		if err := store.BeginBlock(base + b); err != nil {
			_ = store.Close()
			return err
		}
		ups := make([]cole.Update, perBlock)
		for i := range ups {
			k := (uint64(i)*2654435761 + b*97) % keys
			ups[i] = cole.Update{
				Addr:  cole.AddressFromString(fmt.Sprintf("trace-%d", k)),
				Value: cole.ValueFromBytes([]byte(fmt.Sprintf("b%d-%d", base+b, i))),
			}
		}
		if err := store.PutBatch(ups); err != nil {
			_ = store.Close()
			return err
		}
		if _, err := store.Commit(); err != nil {
			_ = store.Close()
			return err
		}
	}
	// Quiesce, then close: FlushAll joins every in-flight flush and
	// merge, and Close stops the goroutines that record events.
	if err := store.FlushAll(); err != nil {
		_ = store.Close()
		return err
	}
	st := store.Stats()
	if err := store.Close(); err != nil {
		return err
	}
	if err := writeTraceArtifacts(tracer, out); err != nil {
		return err
	}
	fmt.Printf("traced %d blocks x %d tx: %d events (%d dropped), %d commits, %d flushes, %d merges, %d preemptions\n",
		blocks, perBlock, tracer.Len(), tracer.Dropped(), st.Commits, st.Flushes, st.Merges, st.Preemptions)
	fmt.Printf("chrome trace: %s (open in Perfetto or chrome://tracing)\n", out)
	fmt.Printf("jsonl events: %sl\n", out)
	return nil
}

// writeTraceArtifacts writes the Chrome trace-event file at out and the
// raw JSONL event log next to it at out+"l".
func writeTraceArtifacts(tr *cole.Tracer, out string) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("chrome trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	g, err := os.Create(out + "l")
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(g); err != nil {
		_ = g.Close()
		return fmt.Errorf("jsonl: %w", err)
	}
	return g.Close()
}

// printStatJSON is the machine-readable form of stat. Stats.Hist is a
// live histogram handle excluded from the struct's own JSON encoding,
// so the percentile summaries are attached as an explicit section.
func printStatJSON(store *cole.Store, st cole.Stats, sb cole.StorageBreakdown) {
	lat := map[string]interface{}{}
	if st.Hist != nil {
		lat["commit"] = st.Hist.Commit.Summary()
		lat["put_batch"] = st.Hist.PutBatch.Summary()
		lat["get"] = st.Hist.Get.Summary()
		lat["get_batch"] = st.Hist.GetBatch.Summary()
		lat["prov"] = st.Hist.Prov.Summary()
	}
	outDoc := struct {
		Height     uint64                 `json:"height"`
		Checkpoint uint64                 `json:"checkpoint"`
		Shards     int                    `json:"shards"`
		Generation uint64                 `json:"generation"`
		Hstate     string                 `json:"hstate"`
		Storage    cole.StorageBreakdown  `json:"storage"`
		Stats      cole.Stats             `json:"stats"`
		Latency    map[string]interface{} `json:"latency"`
		PerShard   []cole.ShardStat       `json:"per_shard,omitempty"`
	}{
		Height:     store.Height(),
		Checkpoint: store.CheckpointHeight(),
		Shards:     store.Shards(),
		Generation: store.Generation(),
		Hstate:     fmt.Sprint(store.RootDigest()),
		Storage:    sb,
		Stats:      st,
		Latency:    lat,
	}
	if ss := store.ShardStats(); len(ss) > 1 {
		outDoc.PerShard = ss
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
