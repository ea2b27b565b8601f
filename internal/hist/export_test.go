package hist

import (
	"sync/atomic"
)

// Sub returns the histogram of samples recorded in h but not in base —
// the distribution attributable to the window between the two
// snapshots. The extremes cannot be differenced, so they are re-derived
// from the delta's occupied buckets (bucket upper bounds, consistent
// with the never-under-report policy). Negative bucket deltas (h not a
// superset of base, which indicates caller error) clamp to zero.
func (h *Hist) Sub(base *Hist) Hist {
	var d Hist
	if base == nil {
		return h.Snapshot()
	}
	first, last := -1, -1
	for i := range h.counts {
		c := atomic.LoadInt64(&h.counts[i]) - atomic.LoadInt64(&base.counts[i])
		if c <= 0 {
			continue
		}
		d.counts[i] = c
		d.total += c
		if first < 0 {
			first = i
		}
		last = i
	}
	if first >= 0 {
		d.minPlus1 = value(first) + 1
		d.maxPlus1 = value(last) + 1
	}
	return d
}
