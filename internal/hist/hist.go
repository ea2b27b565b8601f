// Package hist provides the HDR-style log-linear latency histogram used
// across the engine and the bench harness: values (nanoseconds) land in
// buckets whose width doubles every subCount values, so the relative
// quantization error is bounded by 1/subCount (~1.6%) across the full
// range — sub-microsecond spins to multi-second stalls — in ~30 KB of
// fixed memory.
//
// Recording is O(1), allocation-free, and atomic: one bucket increment,
// one total increment, and two bounded CAS loops for the extremes. That
// makes a single Hist safe to share between every goroutine touching an
// engine (readers, the commit path, background merges), which is what
// lets the engine keep operation histograms always on without a lock on
// the hot path. Reads (Percentile, Summary, Snapshot) are best-effort
// over concurrent recording: totals and buckets may be momentarily
// skewed by in-flight increments, which is fine for telemetry.
package hist

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBits fixes the linear sub-bucket resolution (2^6 = 64
	// sub-buckets per power of two).
	subBits  = 6
	subCount = 1 << subBits
	// buckets covers every int64 nanosecond value: 64 linear buckets
	// plus 64 per remaining power of two.
	buckets = subCount * (65 - subBits)
)

// Hist is the histogram. The zero value is empty and ready to use.
//
// The extremes are stored as value+1 so that 0 can mean "unset" — the
// zero value needs no constructor, which lets callers embed Hists by
// value (per-worker slices, Stats snapshots). All mutation goes through
// atomic ops on plain int64 fields (not atomic.Int64, whose noCopy
// marker would poison the value-copy idiom the harness relies on);
// copies taken via Snapshot or plain assignment are inert plain data.
type Hist struct {
	counts   [buckets]int64
	total    int64
	minPlus1 int64
	maxPlus1 int64
}

// index maps a non-negative nanosecond value to its bucket.
func index(v int64) int {
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	exp := bits.Len64(u) - subBits - 1
	return exp*subCount + int(u>>uint(exp))
}

// value returns the inclusive upper bound of a bucket — the value
// reported for any sample that landed in it, guaranteeing percentiles
// never under-report.
func value(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	exp := idx/subCount - 1
	sub := int64(idx - exp*subCount)
	return (sub+1)<<uint(exp) - 1
}

// Record adds one latency sample. Safe for concurrent use.
func (h *Hist) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	atomic.AddInt64(&h.counts[index(v)], 1)
	atomic.AddInt64(&h.total, 1)
	h.observe(v)
}

// observe folds v into the min/max extremes.
func (h *Hist) observe(v int64) {
	for {
		cur := atomic.LoadInt64(&h.minPlus1)
		if cur != 0 && cur <= v+1 {
			break
		}
		if atomic.CompareAndSwapInt64(&h.minPlus1, cur, v+1) {
			break
		}
	}
	for {
		cur := atomic.LoadInt64(&h.maxPlus1)
		if cur >= v+1 {
			break
		}
		if atomic.CompareAndSwapInt64(&h.maxPlus1, cur, v+1) {
			break
		}
	}
}

func (h *Hist) minVal() int64 {
	if m := atomic.LoadInt64(&h.minPlus1); m > 0 {
		return m - 1
	}
	return 0
}

func (h *Hist) maxVal() int64 {
	if m := atomic.LoadInt64(&h.maxPlus1); m > 0 {
		return m - 1
	}
	return 0
}

// Merge folds another histogram into this one (per-worker or per-shard
// histograms into a total). o may be recorded into concurrently; the
// merge picks up a consistent-enough snapshot for telemetry.
func (h *Hist) Merge(o *Hist) {
	if o == nil || atomic.LoadInt64(&o.total) == 0 {
		return
	}
	var added int64
	for i := range o.counts {
		if c := atomic.LoadInt64(&o.counts[i]); c != 0 {
			atomic.AddInt64(&h.counts[i], c)
			added += c
		}
	}
	atomic.AddInt64(&h.total, added)
	if m := atomic.LoadInt64(&o.minPlus1); m > 0 {
		h.observe(m - 1)
	}
	if m := atomic.LoadInt64(&o.maxPlus1); m > 0 {
		h.observe(m - 1)
	}
}

// Snapshot returns a point-in-time copy safe to read without further
// atomics. The copy is taken bucket by bucket, so it is only consistent
// when recording has quiesced; under live traffic it is best-effort.
func (h *Hist) Snapshot() Hist {
	var s Hist
	var total int64
	for i := range h.counts {
		c := atomic.LoadInt64(&h.counts[i])
		s.counts[i] = c
		total += c
	}
	// Re-derive total from the buckets so count and distribution agree
	// even if samples landed between the two loads.
	s.total = total
	s.minPlus1 = atomic.LoadInt64(&h.minPlus1)
	s.maxPlus1 = atomic.LoadInt64(&h.maxPlus1)
	return s
}

// Count returns the number of recorded samples.
func (h *Hist) Count() int64 { return atomic.LoadInt64(&h.total) }

// Sum returns the approximate total of all recorded samples, derived
// from bucket upper bounds (over-estimates by at most one sub-bucket,
// ~1.6%) — what a Prometheus summary's _sum series needs.
func (h *Hist) Sum() int64 {
	var s int64
	for i := range h.counts {
		if c := atomic.LoadInt64(&h.counts[i]); c != 0 {
			s += c * value(i)
		}
	}
	return s
}

// Percentile returns the latency at quantile p in [0, 1]: the smallest
// bucket bound below which at least p of the samples fall. The exact
// tracked extremes answer p = 0 and p = 1.
func (h *Hist) Percentile(p float64) time.Duration {
	total := atomic.LoadInt64(&h.total)
	if total == 0 {
		return 0
	}
	if p <= 0 {
		return time.Duration(h.minVal())
	}
	if p >= 1 {
		return time.Duration(h.maxVal())
	}
	rank := int64(p*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	max := h.maxVal()
	var seen int64
	for i := range h.counts {
		seen += atomic.LoadInt64(&h.counts[i])
		if seen >= rank {
			v := value(i)
			if v > max {
				v = max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(max)
}

// Summary is the wire form of a histogram for benchmark reports and
// machine-readable stats: the percentile ladder the paper's
// tail-latency discussions use.
type Summary struct {
	Count               int64
	Min, P50, P95, P99  time.Duration
	P999, Max           time.Duration
	MilliP50, MilliP99  float64 // same points in ms, for plotting
	MilliP999, MilliMax float64
}

// Summary snapshots the percentile ladder; nil when empty.
func (h *Hist) Summary() *Summary {
	if h.Count() == 0 {
		return nil
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	s := &Summary{
		Count: h.Count(),
		Min:   time.Duration(h.minVal()),
		P50:   h.Percentile(0.50),
		P95:   h.Percentile(0.95),
		P99:   h.Percentile(0.99),
		P999:  h.Percentile(0.999),
		Max:   time.Duration(h.maxVal()),
	}
	s.MilliP50, s.MilliP99 = ms(s.P50), ms(s.P99)
	s.MilliP999, s.MilliMax = ms(s.P999), ms(s.Max)
	return s
}
