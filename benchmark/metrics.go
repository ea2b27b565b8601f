package main

// metricDef names one metric. BENCHMARK.json at the root of the
// repository lists the same names, units and directions (the test checks
// that the two agree); moves says which end-to-end metric, on which
// workload, a per-layer metric is expected to move.
type metricDef struct {
	name   string
	unit   string
	better string
	moves  string  // per-layer only
	bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd are the metrics a user of the store sees. Every workload
// reports every one of them, each from its own phase. ISSUE 11 also
// listed get_p99_us; its spread over ten seeds reached 25 % on point_read
// (two readers and the garbage collector share two processors), so by the
// issue's own rule it is a per-layer metric, cole.get_us_p99.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "commit_tps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "commit_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "commit_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "get_ops_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "get_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "prov_ops_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "prov_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "prov_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "proof_bytes_avg", unit: "B", better: "lower", bound: 0.15},
	{name: "storage_bytes_per_entry", unit: "B", better: "lower", bound: 0.01},
}

const (
	movesCommit = "commit_tps, commit_p99_us @ ingest, node_mixed"
	movesGet    = "get_ops_s, get_p50_us @ point_read (miss-bound), node_mixed (hit-bound)"
	movesProv   = "prov_p50_us @ prov"
	movesSpace  = "storage_bytes_per_entry @ every workload"
)

// perLayer are the metrics of single layers, named <module>.<metric>.
// Sources: (S) harness spans around cole.DB calls in the traced round,
// (C) deltas of counters the engine exports over the measured phases of
// an untraced round, (P) single-goroutine fixed-count probes of a module's
// exported functions, run after the rounds on the workload's own closed
// store, (T) the traced round's engine events and Algorithm-6 replay.
var perLayer = []metricDef{
	// cole (S)
	{name: "cole.put_batch_us_p50", unit: "us", better: "lower", moves: "commit_p50_us @ ingest, node_mixed"},
	{name: "cole.commit_call_us_p50", unit: "us", better: "lower", moves: "commit_p50_us @ ingest, node_mixed"},
	{name: "cole.commit_call_us_p999", unit: "us", better: "lower", moves: "commit_p99_us @ ingest, node_mixed"},
	{name: "cole.commit_call_us_max", unit: "us", better: "lower", moves: "commit_p99_us @ ingest, node_mixed"},
	{name: "cole.get_hit_us_p50", unit: "us", better: "lower", moves: "get_p50_us @ point_read"},
	{name: "cole.get_absent_us_p50", unit: "us", better: "lower", moves: "get_p50_us @ point_read"},
	{name: "cole.get_at_us_p50", unit: "us", better: "lower", moves: "get_p50_us @ point_read"},
	{name: "cole.get_us_p99", unit: "us", better: "lower", moves: "get_ops_s @ point_read, node_mixed (untraced round)"},
	{name: "cole.prov_query_us_p50", unit: "us", better: "lower", moves: movesProv},
	{name: "cole.prov_verify_us_p50", unit: "us", better: "lower", moves: movesProv},
	// core (C)
	{name: "core.flushes", unit: "count", better: "lower", moves: movesCommit},
	{name: "core.merges", unit: "count", better: "lower", moves: movesCommit},
	{name: "core.flush_bytes", unit: "B", better: "lower", moves: movesCommit},
	{name: "core.merge_bytes", unit: "B", better: "lower", moves: movesCommit},
	{name: "core.write_amp", unit: "ratio", better: "lower", moves: movesCommit},
	{name: "core.merge_busy_s", unit: "s", better: "lower", moves: movesCommit},
	{name: "core.merge_mb_s", unit: "MB/s", better: "higher", moves: movesCommit},
	{name: "core.commit_inlock_us_avg", unit: "us", better: "lower", moves: movesCommit},
	{name: "core.stall_ms", unit: "ms", better: "lower", moves: movesCommit},
	{name: "core.pace_ms", unit: "ms", better: "lower", moves: movesCommit},
	{name: "core.preemptions", unit: "count", better: "lower", moves: movesCommit},
	{name: "core.bloom_skips_per_get", unit: "ratio", better: "higher", moves: movesGet},
	{name: "core.page_reads_per_get", unit: "ratio", better: "lower", moves: movesGet},
	{name: "core.cache_hit_ratio", unit: "ratio", better: "higher", moves: movesGet},
	{name: "core.seq_reads", unit: "count", better: "lower", moves: movesCommit},
	{name: "core.runs_end", unit: "count", better: "lower", moves: movesSpace},
	{name: "core.levels_end", unit: "count", better: "lower", moves: movesSpace},
	{name: "core.data_bytes_per_entry", unit: "B", better: "lower", moves: movesSpace},
	{name: "core.index_bytes_per_entry", unit: "B", better: "lower", moves: movesSpace},
	{name: "core.corrupt_reads", unit: "count", better: "lower", moves: "none: must be 0"},
	{name: "core.reopen_ms", unit: "ms", better: "lower", moves: "setup_s @ point_read"},
	// shard (C)
	{name: "shard.put_imbalance", unit: "ratio", better: "lower", moves: "commit_tps @ node_mixed"},
	// merge (C, P)
	{name: "merge.waits", unit: "count", better: "lower", moves: "commit_p99_us @ node_mixed"},
	{name: "merge.partition_waits", unit: "count", better: "lower", moves: "commit_p99_us @ node_mixed"},
	{name: "merge.run_noop_ns", unit: "ns", better: "lower", moves: "commit_p99_us @ node_mixed"},
	// mbtree (P)
	{name: "mbtree.insert_ns", unit: "ns", better: "lower", moves: "commit_p50_us @ ingest"},
	{name: "mbtree.insert_sorted_ns", unit: "ns", better: "lower", moves: "commit_p50_us @ ingest"},
	{name: "mbtree.predecessor_ns", unit: "ns", better: "lower", moves: "get_p50_us @ node_mixed"},
	{name: "mbtree.root_hash_us", unit: "us", better: "lower", moves: "commit_p50_us @ ingest"},
	{name: "mbtree.prove_range_us", unit: "us", better: "lower", moves: movesProv},
	// bloom (P)
	{name: "bloom.add_ns", unit: "ns", better: "lower", moves: "commit_tps @ ingest"},
	{name: "bloom.may_contain_ns", unit: "ns", better: "lower", moves: "get_p50_us @ point_read"},
	{name: "bloom.fp_rate_measured", unit: "ratio", better: "lower", moves: "get_p50_us @ point_read"},
	// pla (P)
	{name: "pla.fit_ns_per_key", unit: "ns", better: "lower", moves: "commit_tps @ ingest"},
	{name: "pla.models_per_kentry", unit: "ratio", better: "lower", moves: "get_p50_us @ point_read"},
	{name: "pla.search_page_ns", unit: "ns", better: "lower", moves: "get_p50_us @ point_read"},
	// pagefile (P)
	{name: "pagefile.append_ns_per_rec", unit: "ns", better: "lower", moves: "commit_tps @ ingest"},
	{name: "pagefile.record_at_hit_ns", unit: "ns", better: "lower", moves: "get_p50_us @ node_mixed"},
	{name: "pagefile.record_at_miss_us", unit: "us", better: "lower", moves: "get_p50_us @ point_read"},
	{name: "pagefile.seq_read_mb_s", unit: "MB/s", better: "higher", moves: "commit_tps @ ingest"},
	// mht (P)
	{name: "mht.add_ns_per_leaf", unit: "ns", better: "lower", moves: "commit_tps @ ingest"},
	{name: "mht.prove_range_us", unit: "us", better: "lower", moves: movesProv},
	{name: "mht.verify_range_us", unit: "us", better: "lower", moves: movesProv},
	{name: "mht.hash_reads_per_prove", unit: "ratio", better: "lower", moves: movesProv},
	// run (P)
	{name: "run.build_ns_per_entry", unit: "ns", better: "lower", moves: "commit_tps @ ingest"},
	{name: "run.merge_build_ns_per_entry", unit: "ns", better: "lower", moves: "commit_tps @ ingest"},
	{name: "run.search_hit_us", unit: "us", better: "lower", moves: "get_p50_us @ point_read"},
	{name: "run.search_miss_us", unit: "us", better: "lower", moves: "get_p50_us @ point_read"},
	{name: "run.search_pages_per_op", unit: "ratio", better: "lower", moves: "get_p50_us @ point_read"},
	{name: "run.prov_search_us", unit: "us", better: "lower", moves: movesProv},
	{name: "run.verify_prov_us", unit: "us", better: "lower", moves: movesProv},
	{name: "run.open_ms", unit: "ms", better: "lower", moves: "setup_s @ point_read"},
	{name: "run.layers_bottom", unit: "count", better: "lower", moves: "get_p50_us @ point_read"},
	// vfs (P): host calibration, explains host-to-host differences
	{name: "vfs.fsync_us", unit: "us", better: "lower", moves: "none: host calibration"},
	{name: "vfs.write_mb_s", unit: "MB/s", better: "higher", moves: "none: host calibration"},
	// workload (P)
	{name: "workload.next_ns", unit: "ns", better: "lower", moves: "none: shows the generator is not the bottleneck"},
	// proc (C)
	{name: "proc.cpu_s", unit: "s", better: "lower", moves: "every throughput metric"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower", moves: "none: memory moved into set-up or caches shows here"},
	{name: "proc.alloc_mb", unit: "MB", better: "lower", moves: "commit_p99_us, cole.get_us_p99 (GC pressure)"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower", moves: "commit_p99_us, cole.get_us_p99"},
	// trace (T)
	{name: "trace.get.runs_probed_avg", unit: "ratio", better: "lower", moves: movesGet},
	{name: "trace.get.runs_searched_avg", unit: "ratio", better: "lower", moves: movesGet},
	{name: "trace.flush_us_p50", unit: "us", better: "lower", moves: "commit_p99_us @ ingest"},
	{name: "trace.merge_ms_l1", unit: "ms", better: "lower", moves: movesCommit},
	{name: "trace.merge_ms_l2", unit: "ms", better: "lower", moves: movesCommit},
	{name: "trace.merge_ms_l3", unit: "ms", better: "lower", moves: movesCommit},
	{name: "trace.merge_ms_l4", unit: "ms", better: "lower", moves: movesCommit},
	{name: "trace.merge_ms_l5", unit: "ms", better: "lower", moves: movesCommit},
	{name: "trace.manifest_us_p50", unit: "us", better: "lower", moves: "commit_p99_us @ ingest"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "none: cost of tracing itself"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a list of definitions.
type metricSet map[string]metric

func (m metricSet) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			m[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: value for undeclared metric " + name)
}
