package main

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"

	"cole"
	"cole/internal/types"
)

// tail is a timing's highest percentile that still has at least ten
// samples beyond it, with the sample count it rests on.
type tail struct {
	Percentile float64 `json:"percentile"`
	Us         float64 `json:"us"`
	Samples    int     `json:"samples"`
}

// result is one run of one workload.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"ops_attempted"`
	Failed    int64   `json:"ops_failed"`
	// RootDigest is the final Hstate, the same in every round.
	RootDigest string `json:"root_digest"`
	// Counters that repeat exactly for a given seed and -seconds on the
	// single-writer workloads; -compare requires them to be identical.
	Exact    map[string]float64   `json:"exact"`
	Metrics  metricSet            `json:"metrics"`
	Tails    map[string]tail      `json:"tails,omitempty"`
	Rounds   map[string][]float64 `json:"rounds,omitempty"`
	Failures []string             `json:"failures,omitempty"`
}

type options struct {
	seed     int64
	seconds  float64
	divisor  int    // > 1 shrinks preload and operation counts (smoke)
	tmp      string // scratch directory for store data
	traceOut string // where a traced run writes its spans
}

// roundMetrics turns one round into its end-to-end values.
func roundMetrics(r *roundResult) map[string]float64 {
	return map[string]float64{
		"setup_s":                 r.setup.Seconds(),
		"commit_tps":              r.write.perSecond(),
		"commit_p50_us":           percentile(r.write.lat, 0.50),
		"commit_p99_us":           percentile(r.write.lat, 0.99),
		"get_ops_s":               r.get.perSecond(),
		"get_p50_us":              percentile(r.get.lat, 0.50),
		"prov_ops_s":              r.prov.perSecond(),
		"prov_p50_us":             percentile(r.prov.lat, 0.50),
		"prov_p99_us":             percentile(r.prov.lat, 0.99),
		"proof_bytes_avg":         float64(r.proofBytes) / float64(max(r.proofs, 1)),
		"storage_bytes_per_entry": float64(r.storage.DataBytes+r.storage.IndexBytes) / float64(max(r.storage.Entries, 1)),
	}
}

func tailOf(lat []uint32) tail {
	q := tailQuantile(len(lat))
	return tail{Percentile: q * 100, Us: percentile(lat, q), Samples: len(lat)}
}

// runWorkload runs one workload untraced: rounds of identical work, each
// end-to-end metric the median of its per-round values.
func runWorkload(s spec, o options) (*result, error) {
	in := newInputs(s, o.seed, o.seconds, o.divisor)
	r := newRunner(in, o.tmp)
	res := &result{Workload: s.name, Seed: o.seed, Seconds: o.seconds,
		Metrics: metricSet{}, Rounds: map[string][]float64{}, Tails: map[string]tail{}}
	var last *roundResult
	for i := 0; i < rounds; i++ {
		rr, _, err := r.round(false)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", s.name, i, err)
		}
		for name, v := range roundMetrics(rr) {
			res.Rounds[name] = append(res.Rounds[name], v)
		}
		// How long each phase took: what the fixed rates were sized by.
		res.Rounds["phase_write_s"] = append(res.Rounds["phase_write_s"], rr.write.wall.Seconds())
		res.Rounds["phase_get_s"] = append(res.Rounds["phase_get_s"], rr.get.wall.Seconds())
		res.Rounds["phase_prov_s"] = append(res.Rounds["phase_prov_s"], rr.prov.wall.Seconds())
		res.Attempted += rr.attempted
		if last != nil && rr.root != last.root {
			r.fail("round %d ended on root %x, round %d on %x: same work, different state", i, rr.root[:8], i-1, last.root[:8])
		}
		last = rr
	}
	for _, d := range endToEnd {
		res.Metrics.set(endToEnd, d.name, median(res.Rounds[d.name]))
	}
	res.Tails["commit"] = tailOf(last.write.lat)
	res.Tails["get"] = tailOf(last.get.lat)
	res.Tails["prov"] = tailOf(last.prov.lat)
	res.finish(r, last)
	return res, nil
}

// finish fills in the correctness outputs from the runner and the last
// round.
func (res *result) finish(r *runner, last *roundResult) {
	res.Failed = r.failed.Load()
	res.Failures = r.failures
	res.Correct = res.Failed == 0
	res.RootDigest = hex.EncodeToString(last.root[:])
	st := last.stats[len(last.stats)-1]
	base := last.stats[0]
	res.Exact = map[string]float64{
		"storage_bytes":  float64(last.storage.DataBytes + last.storage.IndexBytes),
		"entries":        float64(last.storage.Entries),
		"proof_bytes":    float64(last.proofBytes),
		"core.flushes":   float64(st.Flushes - base.Flushes),
		"core.merges":    float64(st.Merges - base.Merges),
		"core.write_amp": writeAmp(base, st),
	}
}

func writeAmp(from, to cole.Stats) float64 {
	user := float64(to.Puts-from.Puts) * types.EntrySize
	if user == 0 {
		return 0
	}
	return float64(to.FlushBytes-from.FlushBytes+to.MergeBytes-from.MergeBytes) / user
}

// procUsage is a reading of what the process has consumed so far.
type procUsage struct {
	cpuS      float64
	peakRSSMB float64
	allocMB   float64
	gcPauseMs float64
}

func readProc() procUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procUsage{
		cpuS:      tv(ru.Utime) + tv(ru.Stime),
		peakRSSMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
		allocMB:   float64(ms.TotalAlloc) / (1 << 20),
		gcPauseMs: float64(ms.PauseTotalNs) / 1e6,
	}
}

// runTraced is the separate traced run: one untraced round for the
// counters, one round with spans around every cole.DB call and the
// engine's tracer attached, a hand-walked Algorithm 6 over the traced
// round's closed store, and the module probes. It reports every per-layer
// metric; end-to-end metrics come from untraced runs only.
func runTraced(s spec, o options) (*result, error) {
	in := newInputs(s, o.seed, o.seconds, o.divisor)
	r := newRunner(in, o.tmp)
	res := &result{Workload: s.name, Seed: o.seed, Seconds: o.seconds, Traced: true, Metrics: metricSet{}}
	set := func(name string, v float64) { res.Metrics.set(perLayer, name, v) }

	// Untraced round: counters and process usage.
	before := readProc()
	plain, _, err := r.round(false)
	if err != nil {
		return nil, fmt.Errorf("%s counter round: %w", s.name, err)
	}
	after := readProc()
	counterMetrics(set, s, plain)
	set("cole.get_us_p99", percentile(plain.get.lat, 0.99))
	set("proc.cpu_s", after.cpuS-before.cpuS)
	set("proc.peak_rss_mb", after.peakRSSMB)
	set("proc.alloc_mb", after.allocMB-before.allocMB)
	set("proc.gc_pause_ms", after.gcPauseMs-before.gcPauseMs)

	// Traced round: same work, same seed.
	r.spans = &spanLog{}
	trBase := now()
	r.tracer = cole.NewTracer(0)
	traced, dir, err := r.round(true)
	if err != nil {
		return nil, fmt.Errorf("%s traced round: %w", s.name, err)
	}
	defer os.RemoveAll(dir)
	spanMetrics(set, traced)
	et := summariseTrace(r.tracer)
	set("trace.flush_us_p50", median(et.flushUs))
	set("trace.manifest_us_p50", median(et.manifestUs))
	for l := 1; l <= 5; l++ {
		set(fmt.Sprintf("trace.merge_ms_l%d", l), et.mergeMs[l])
	}
	// The phase the workload exists for comes first in its order.
	rate := func(rr *roundResult) float64 {
		switch s.order[0] {
		case phaseWrite:
			return rr.write.perSecond()
		case phaseGet:
			return rr.get.perSecond()
		}
		return rr.prov.perSecond()
	}
	set("trace.overhead_pct", (rate(plain)-rate(traced))/rate(plain)*100)

	// Algorithm 6 by hand over the closed store, against DB.Get.
	engines, err := openRuns(dir, s)
	if err != nil {
		return nil, fmt.Errorf("%s: open runs: %w", s.name, err)
	}
	defer closeRuns(engines)
	rp, err := r.replayAgainstGet(dir, engines)
	if err != nil {
		return nil, err
	}
	if rp.mismatches > 0 {
		r.fail("Algorithm-6 replay disagrees with DB.Get on %d of %d keys", rp.mismatches, rp.keys)
	}
	set("trace.get.runs_probed_avg", float64(rp.probed)/float64(rp.keys))
	set("trace.get.runs_searched_avg", float64(rp.searched)/float64(rp.keys))

	if err := probes(set, in, engines, filepath.Join(o.tmp, "probe"), probeSizesFor(o.divisor)); err != nil {
		return nil, fmt.Errorf("%s probes: %w", s.name, err)
	}
	if o.traceOut != "" {
		logs := append([]*spanLog{r.spans}, traced.readerLogs...)
		if err := writeTrace(o.traceOut, logs, r.tracer, trBase); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	res.Attempted = plain.attempted + traced.attempted + int64(rp.keys)
	res.finish(r, traced)
	if et.dropped > 0 {
		res.Failures = append(res.Failures, fmt.Sprintf("engine tracer dropped %d events", et.dropped))
	}
	return res, nil
}

// replaySample is how many keys the Algorithm-6 replay walks.
const replaySample = 20_000

// replayAgainstGet reopens the store, asks DB.Get for a sample of written
// and never-written keys, closes it, and replays the same lookups by hand.
func (r *runner) replayAgainstGet(dir string, engines []engineRuns) (replayResult, error) {
	n := min(replaySample, len(r.in.gets))
	keys := make([]uint32, n)
	want := make([]uint32, n)
	db, err := r.in.spec.open(dir, nil)
	if err != nil {
		return replayResult{}, fmt.Errorf("reopen for replay: %w", err)
	}
	for i := range keys {
		keys[i] = r.in.gets[i].key
		v, ok, err := db.Get(r.in.addrs[keys[i]])
		if err != nil {
			r.fail("get key %d: %v", keys[i], err)
		}
		if ok {
			_, want[i], _ = decodeValue(v)
		}
	}
	if err := db.Close(); err != nil {
		return replayResult{}, fmt.Errorf("close after replay reads: %w", err)
	}
	return replay(engines, r.in, keys, want, r.spans), nil
}

// counterMetrics derives the (C) metrics from an untraced round's counter
// snapshots: write-side counters over all measured phases, read-side
// ratios over the phase that issues the point reads.
func counterMetrics(set func(string, float64), s spec, rr *roundResult) {
	from, to := rr.stats[0], rr.stats[len(rr.stats)-1]
	set("core.flushes", float64(to.Flushes-from.Flushes))
	set("core.merges", float64(to.Merges-from.Merges))
	set("core.flush_bytes", float64(to.FlushBytes-from.FlushBytes))
	set("core.merge_bytes", float64(to.MergeBytes-from.MergeBytes))
	set("core.write_amp", writeAmp(from, to))
	mergeS := float64(to.MergeNanos-from.MergeNanos) / 1e9
	set("core.merge_busy_s", mergeS)
	set("core.merge_mb_s", ratio(float64(to.MergeBytes-from.MergeBytes)/1e6, mergeS))
	set("core.commit_inlock_us_avg", ratio(float64(to.CommitNanos-from.CommitNanos)/1e3, float64(to.Commits-from.Commits)))
	set("core.stall_ms", float64(to.StallNanos-from.StallNanos)/1e6)
	set("core.pace_ms", float64(to.PaceNanos-from.PaceNanos)/1e6)
	set("core.preemptions", float64(to.Preemptions-from.Preemptions))
	set("core.seq_reads", float64(to.SeqReads-from.SeqReads))
	set("core.corrupt_reads", float64(to.CorruptReads-from.CorruptReads))
	set("merge.waits", float64(to.MergeWaits-from.MergeWaits))
	set("merge.partition_waits", float64(to.PartitionWaits-from.PartitionWaits))

	// The phase whose window holds the point reads: the get phase, or the
	// write phase when the readers run beside the writer.
	gi := 0
	for i, k := range s.order {
		if k == phaseGet || (s.concurrent && k == phaseWrite) {
			gi = i
		}
	}
	g0, g1 := rr.stats[gi], rr.stats[gi+1]
	gets := float64(g1.Gets - g0.Gets)
	pages := float64(g1.PageReads - g0.PageReads)
	hits := float64(g1.CacheHits - g0.CacheHits)
	set("core.bloom_skips_per_get", ratio(float64(g1.BloomSkips-g0.BloomSkips), gets))
	set("core.page_reads_per_get", ratio(pages, gets))
	set("core.cache_hit_ratio", ratio(hits, hits+pages))

	set("core.runs_end", float64(rr.storage.Runs))
	set("core.levels_end", float64(rr.storage.Levels))
	set("core.data_bytes_per_entry", ratio(float64(rr.storage.DataBytes), float64(rr.storage.Entries)))
	set("core.index_bytes_per_entry", ratio(float64(rr.storage.IndexBytes), float64(rr.storage.Entries)))
	set("core.reopen_ms", float64(rr.reopen)/1e6)

	imbalance := 1.0
	if len(rr.shards) > 0 {
		var sum, most float64
		for _, sh := range rr.shards {
			sum += float64(sh.Puts)
			most = max(most, float64(sh.Puts))
		}
		imbalance = ratio(most, sum/float64(len(rr.shards)))
	}
	set("shard.put_imbalance", imbalance)
}

// ratio is a/b, or 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanMetrics derives the (S) metrics from the traced round's spans.
func spanMetrics(set func(string, float64), rr *roundResult) {
	set("cole.put_batch_us_p50", percentile(rr.putBatch.lat, 0.5))
	set("cole.commit_call_us_p50", percentile(rr.commitCall.lat, 0.5))
	set("cole.commit_call_us_p999", percentile(rr.commitCall.lat, 0.999))
	set("cole.commit_call_us_max", percentile(rr.commitCall.lat, 1))
	set("cole.get_hit_us_p50", percentile(rr.getKind[getHit].lat, 0.5))
	set("cole.get_absent_us_p50", percentile(rr.getKind[getAbsent].lat, 0.5))
	set("cole.get_at_us_p50", percentile(rr.getKind[getAt].lat, 0.5))
	set("cole.prov_query_us_p50", percentile(rr.provQuery.lat, 0.5))
	set("cole.prov_verify_us_p50", percentile(rr.provVerify.lat, 0.5))
}
