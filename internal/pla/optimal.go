package pla

import (
	"math"

	"cole/internal/types"
)

// OptimalBuilder is the paper's exact segment construction (Algorithm 2 /
// O'Rourke [40]): it maintains the convex hulls of the ±ε constraint
// points and the feasible slope interval they induce, emitting a segment
// only when no single line can cover the next point — the minimal number
// of ε-bounded segments for the stream.
//
// It produces at most as many models as the default greedy Builder (which
// is guaranteed within 2× of optimal) at the cost of O(segment) buffering
// for the final float-safety verification; the greedy Builder keeps O(1)
// state. Compare both with the ablation benchmarks. The emitted models are
// interchangeable: same encoding, same query path.
type OptimalBuilder struct {
	eps    float64 // constraint half-width with float-safety margin
	epsInt int64   // integer bound verified on emit
	emit   func(Model) error

	started bool
	kmin    types.CompoundKey
	lastKey types.CompoundKey
	pts     []optPoint
	hullL   []optPoint // upper hull of (x, y−ε): candidates bounding ρmax
	hullU   []optPoint // lower hull of (x, y+ε): candidates bounding ρmin
	rhoMin  float64
	rhoMax  float64
	// Support pairs realizing the extreme slopes; their intersection is a
	// point every feasible line can rotate around (O'Rourke's pivot).
	maxA, maxB optPoint
	minA, minB optPoint
	// Same-x cluster state: distinct keys whose deltas collapse to one
	// float64 (far from the anchor, a whole address's versions share an
	// x). They impose a vertical constraint — the line's value at x must
	// lie in the intersection of their ±ε intervals — rather than slope
	// bounds.
	clusterLo, clusterHi float64

	total  int64
	models int64
}

type optPoint struct {
	x, y float64
}

// NewOptimalBuilder mirrors NewBuilder for the optimal algorithm.
func NewOptimalBuilder(eps int, emit func(Model) error) (*OptimalBuilder, error) {
	if err := checkEpsilon(eps); err != nil {
		return nil, err
	}
	return &OptimalBuilder{eps: float64(eps) - 0.75, epsInt: int64(eps), emit: emit}, nil
}

// Add feeds the next point; keys and positions must be strictly
// increasing.
func (b *OptimalBuilder) Add(k types.CompoundKey, pos int64) error {
	if b.started && k.Cmp(b.lastKey) <= 0 {
		return errNonIncreasingKey(k, b.lastKey)
	}
	b.total++
	if !b.started {
		b.start(k, pos)
		return nil
	}
	x := types.KeyDeltaFloat(k, b.kmin)
	y := float64(pos)
	last := b.pts[len(b.pts)-1]

	p := optPoint{x: x, y: y}
	pl := optPoint{x: x, y: y - b.eps}
	pu := optPoint{x: x, y: y + b.eps}

	// Candidate slope bounds induced by the new point against the hulls
	// (entries at the same x impose no slope constraint and are skipped):
	// ρmax ≤ min over earlier lower points L_i of slope(L_i, pu);
	// ρmin ≥ max over earlier upper points U_i of slope(U_i, pl).
	candMax, supMax := minSlopeTo(b.hullL, pu)
	candMin, supMin := maxSlopeTo(b.hullU, pl)

	newMax, newMin := b.rhoMax, b.rhoMin
	ma, mb := b.maxA, b.maxB
	na, nb := b.minA, b.minB
	if candMax < newMax {
		newMax = candMax
		ma, mb = supMax, pu
	}
	if candMin > newMin {
		newMin = candMin
		na, nb = supMin, pl
	}
	sameX := x == last.x
	if newMin > newMax ||
		(sameX && (pl.y > b.clusterHi || pu.y < b.clusterLo)) {
		if err := b.flush(); err != nil {
			return err
		}
		b.start(k, pos)
		return nil
	}
	b.rhoMax, b.rhoMin = newMax, newMin
	b.maxA, b.maxB = ma, mb
	b.minA, b.minB = na, nb
	b.pts = append(b.pts, p)
	b.lastKey = k
	if sameX {
		// Tighten the vertical window. Positions increase, so the new
		// point's lower bound is the binding one for future slope
		// candidates: replace the same-x hull top on the lower hulls; the
		// earlier (smaller) upper bound stays binding on hullU.
		if pl.y > b.clusterLo {
			b.clusterLo = pl.y
		}
		if pu.y < b.clusterHi {
			b.clusterHi = pu.y
		}
		if top := b.hullL[len(b.hullL)-1]; top.x == x && pl.y > top.y {
			b.hullL = b.hullL[:len(b.hullL)-1]
			pushUpperHull(&b.hullL, pl)
		}
		return nil
	}
	b.clusterLo, b.clusterHi = pl.y, pu.y
	pushUpperHull(&b.hullL, pl)
	pushLowerHull(&b.hullU, pu)
	return nil
}

func (b *OptimalBuilder) start(k types.CompoundKey, pos int64) {
	b.started = true
	b.kmin, b.lastKey = k, k
	p := optPoint{x: 0, y: float64(pos)}
	b.pts = b.pts[:0]
	b.pts = append(b.pts, p)
	b.hullL = b.hullL[:0]
	b.hullL = append(b.hullL, optPoint{x: 0, y: p.y - b.eps})
	b.hullU = b.hullU[:0]
	b.hullU = append(b.hullU, optPoint{x: 0, y: p.y + b.eps})
	b.rhoMin, b.rhoMax = math.Inf(-1), math.Inf(1)
	b.clusterLo, b.clusterHi = p.y-b.eps, p.y+b.eps
}

// flush emits the current segment, verifying the integer error bound and
// falling back to greedy splitting if float geometry ever drifts past it.
func (b *OptimalBuilder) flush() error {
	if !b.started || len(b.pts) == 0 {
		return nil
	}
	pmax := int64(b.pts[len(b.pts)-1].y)
	var m Model
	switch {
	case len(b.pts) == 1:
		m = Model{KMin: b.kmin, Slope: 0, Intercept: b.pts[0].y, PMax: pmax}
	case math.IsInf(b.rhoMax, 1) && math.IsInf(b.rhoMin, -1):
		// Every point shares one x (a single collapsed cluster): a flat
		// line through the vertical window's center covers them all.
		m = Model{KMin: b.kmin, Slope: 0, Intercept: (b.clusterLo + b.clusterHi) / 2, PMax: pmax}
	default:
		slope := (b.rhoMin + b.rhoMax) / 2
		if math.IsInf(b.rhoMax, 1) {
			slope = b.rhoMin
		}
		if math.IsInf(b.rhoMin, -1) {
			slope = b.rhoMax
		}
		ox, oy := b.pivot()
		m = Model{KMin: b.kmin, Slope: slope, Intercept: oy - slope*ox, PMax: pmax}
	}
	if b.verified(m) {
		b.models++
		return b.emit(m)
	}
	// Float drift beyond the safety margin: re-segment the buffered
	// points greedily over their stored deltas, which enforces the bound
	// point by point.
	return b.greedyOverDeltas()
}

// greedyOverDeltas re-segments the buffered points using the cone method
// over their float deltas, emitting models anchored at sub-offsets of the
// original kmin. Because model prediction only uses float deltas from
// KMin, anchoring every fallback model at the segment's kmin with an
// adjusted intercept is exact.
func (b *OptimalBuilder) greedyOverDeltas() error {
	i := 0
	for i < len(b.pts) {
		x0, y0 := b.pts[i].x, b.pts[i].y
		lo, hi := 0.0, math.Inf(1)
		j := i + 1
		for j < len(b.pts) {
			dx := b.pts[j].x - x0
			if dx == 0 {
				// Collapsed delta: the line value at x0 is y0; the point
				// fits iff within ε of it (the greedy Builder's rule).
				if math.Abs(b.pts[j].y-y0) <= b.eps {
					j++
					continue
				}
				break
			}
			l := (b.pts[j].y - b.eps - y0) / dx
			h := (b.pts[j].y + b.eps - y0) / dx
			nl, nh := lo, hi
			if l > nl {
				nl = l
			}
			if h < nh {
				nh = h
			}
			if nl > nh {
				break
			}
			lo, hi = nl, nh
			j++
		}
		slope := lo
		if !math.IsInf(hi, 1) {
			slope = (lo + hi) / 2
		}
		// Anchor at the segment's kmin: intercept shifts by slope·x0.
		m := Model{KMin: b.kmin, Slope: slope, Intercept: y0 - slope*x0, PMax: int64(b.pts[j-1].y)}
		b.models++
		if err := b.emit(m); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// pivot returns the intersection of the two extreme lines — a point all
// feasible lines pass near (the parallelogram center of Figure 5).
func (b *OptimalBuilder) pivot() (float64, float64) {
	// Extreme lines: through (maxA, maxB) with slope ρmax and through
	// (minA, minB) with slope ρmin.
	if math.IsInf(b.rhoMax, 1) || math.IsInf(b.rhoMin, -1) {
		return b.pts[0].x, b.pts[0].y
	}
	// y = ρmax (x − maxA.x) + maxA.y ; y = ρmin (x − minA.x) + minA.y
	denom := b.rhoMax - b.rhoMin
	if denom == 0 {
		return b.maxA.x, b.maxA.y
	}
	x := (b.rhoMax*b.maxA.x - b.rhoMin*b.minA.x + b.minA.y - b.maxA.y) / denom
	y := b.rhoMax*(x-b.maxA.x) + b.maxA.y
	return x, y
}

// verified checks the emitted model against every buffered point using
// the exact query-path arithmetic.
func (b *OptimalBuilder) verified(m Model) bool {
	for _, p := range b.pts {
		pred := m.Intercept + m.Slope*p.x
		if pred >= float64(m.PMax) {
			pred = float64(m.PMax)
		}
		if pred <= 0 {
			pred = 0
		}
		if d := int64(math.Round(pred)) - int64(p.y); d > b.epsInt || d < -b.epsInt {
			return false
		}
	}
	return true
}

// Finish flushes the trailing segment.
func (b *OptimalBuilder) Finish() error {
	if !b.started {
		return nil
	}
	err := b.flush()
	b.started = false
	return err
}

// Total returns points consumed; Models returns models emitted.
func (b *OptimalBuilder) Total() int64  { return b.total }
func (b *OptimalBuilder) Models() int64 { return b.models }

// ---- geometry helpers ----

func cross(o, a, p optPoint) float64 {
	return (a.x-o.x)*(p.y-o.y) - (a.y-o.y)*(p.x-o.x)
}

// pushUpperHull maintains the upper convex hull (left-to-right, right
// turns only) — the candidate set maximizing slopes seen from the right.
func pushUpperHull(h *[]optPoint, p optPoint) {
	s := *h
	for len(s) >= 2 && cross(s[len(s)-2], s[len(s)-1], p) >= 0 {
		s = s[:len(s)-1]
	}
	*h = append(s, p)
}

// pushLowerHull maintains the lower convex hull (left turns only).
func pushLowerHull(h *[]optPoint, p optPoint) {
	s := *h
	for len(s) >= 2 && cross(s[len(s)-2], s[len(s)-1], p) <= 0 {
		s = s[:len(s)-1]
	}
	*h = append(s, p)
}

// minSlopeTo returns the minimum slope from any hull vertex to target and
// the achieving vertex (slope function over a convex chain is unimodal; a
// linear scan is robust and hulls stay small).
func minSlopeTo(hull []optPoint, target optPoint) (float64, optPoint) {
	best := math.Inf(1)
	var bp optPoint
	for _, hp := range hull {
		dx := target.x - hp.x
		if dx <= 0 {
			continue
		}
		s := (target.y - hp.y) / dx
		if s < best {
			best = s
			bp = hp
		}
	}
	return best, bp
}

// maxSlopeTo returns the maximum slope from any hull vertex to target.
func maxSlopeTo(hull []optPoint, target optPoint) (float64, optPoint) {
	best := math.Inf(-1)
	var bp optPoint
	for _, hp := range hull {
		dx := target.x - hp.x
		if dx <= 0 {
			continue
		}
		s := (target.y - hp.y) / dx
		if s > best {
			best = s
			bp = hp
		}
	}
	return best, bp
}

func errNonIncreasingKey(k, last types.CompoundKey) error {
	return &orderError{k: k, last: last}
}

type orderError struct{ k, last types.CompoundKey }

func (e *orderError) Error() string {
	return "pla: keys not strictly increasing: " + e.k.String() + " after " + e.last.String()
}
