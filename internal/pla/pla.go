// Package pla implements the ε-bounded piecewise linear models of COLE's
// index files (paper §4.1, Definition 1, Algorithm 2).
//
// A model M = ⟨sl, ic, kmin, pmax⟩ predicts the position of a compound key
// K ≥ kmin as ppred = min(ic + sl·(K − kmin), pmax) with the guarantee
// |ppred − preal| ≤ ε. Keys are 224-bit integers (types.U256); the x
// coordinate of a point is the key's delta from the segment anchor kmin,
// converted to float64 by the *same* conversion at build and query time, so
// the bound verified during construction holds on disk.
//
// Substitution note: the paper computes segments with O'Rourke's online
// parallelogram/convex-hull algorithm (optimal PLA). We use the greedy
// shrinking-cone method (FITing-tree): also streaming with O(1) state, also
// ε-bounded, and at most 2× the optimal segment count. The builder applies
// a 0.75-position safety margin so that float64 rounding plus final
// round-to-nearest can never exceed ε.
package pla

import (
	"encoding/binary"
	"fmt"
	"math"

	"cole/internal/types"
)

// ModelSize is the on-disk encoding width of a model:
// kmin (28) ‖ slope (8) ‖ intercept (8) ‖ pmax (8).
const ModelSize = types.CompoundKeySize + 8 + 8 + 8

// Model is an ε-bounded linear segment (Definition 1).
type Model struct {
	KMin      types.CompoundKey // first key covered
	Slope     float64
	Intercept float64 // predicted position at kmin
	PMax      int64   // last position covered by this model
}

// Predict returns the model's position estimate for key k (the paper's
// ppred = min(K·sl + ic, pmax), with x anchored at kmin and clamped to be
// non-negative). k must satisfy k ≥ kmin; the caller checks coverage.
func (m Model) Predict(k types.CompoundKey) int64 {
	x := types.KeyDeltaFloat(k, m.KMin)
	p := m.Intercept + m.Slope*x
	// Clamp in float space: keys far beyond the segment (e.g. a query key
	// between segments) can push p past the int64 range, and a float→int
	// conversion would overflow before an integer clamp could catch it.
	if p >= float64(m.PMax) || math.IsNaN(p) {
		return m.PMax
	}
	if p <= 0 {
		return 0
	}
	return int64(math.Round(p))
}

// Encode writes the 52-byte model record into dst.
func (m Model) Encode(dst []byte) {
	m.KMin.PutBytes(dst)
	off := types.CompoundKeySize
	binary.BigEndian.PutUint64(dst[off:], math.Float64bits(m.Slope))
	binary.BigEndian.PutUint64(dst[off+8:], math.Float64bits(m.Intercept))
	binary.BigEndian.PutUint64(dst[off+16:], uint64(m.PMax))
}

// DecodeModel parses a record written by Encode.
func DecodeModel(b []byte) (Model, error) {
	if len(b) < ModelSize {
		return Model{}, fmt.Errorf("pla: model record too short: %d bytes", len(b))
	}
	k, err := types.DecodeCompoundKey(b)
	if err != nil {
		return Model{}, err
	}
	off := types.CompoundKeySize
	return Model{
		KMin:      k,
		Slope:     math.Float64frombits(binary.BigEndian.Uint64(b[off:])),
		Intercept: math.Float64frombits(binary.BigEndian.Uint64(b[off+8:])),
		PMax:      int64(binary.BigEndian.Uint64(b[off+16:])),
	}, nil
}

// Builder consumes a stream of strictly increasing (key, position) points
// and emits ε-bounded models (the paper's BuildModel, Algorithm 2). It
// keeps O(1) state: the current segment anchor and the feasible slope cone.
type Builder struct {
	eps  float64 // effective error budget (ε − safety margin)
	emit func(Model) error

	started bool
	kmin    types.CompoundKey
	lastKey types.CompoundKey
	y0      float64 // position of the anchor point
	pmax    int64
	loSlope float64
	hiSlope float64
	count   int64 // points in current segment
	total   int64 // points consumed overall
	models  int64 // models emitted
}

// NewBuilder creates a builder with error bound eps ≥ 1 that invokes emit
// for each completed model, in key order.
func NewBuilder(eps int, emit func(Model) error) (*Builder, error) {
	if eps < 1 {
		return nil, fmt.Errorf("pla: epsilon %d < 1", eps)
	}
	return &Builder{eps: float64(eps) - 0.75, emit: emit}, nil
}

// Add feeds the next point. Keys must be strictly increasing; positions must
// be strictly increasing as well (they are file offsets of sorted entries).
func (b *Builder) Add(k types.CompoundKey, pos int64) error {
	if b.started && k.Cmp(b.lastKey) <= 0 {
		return fmt.Errorf("pla: keys not strictly increasing: %v after %v", k, b.lastKey)
	}
	if b.total > 0 && pos <= b.pmax {
		return fmt.Errorf("pla: positions not strictly increasing: %d after %d", pos, b.pmax)
	}
	b.total++
	if !b.started {
		b.startSegment(k, pos)
		return nil
	}

	x := types.KeyDeltaFloat(k, b.kmin)
	y := float64(pos)
	if x == 0 {
		// Distinct keys whose 224-bit delta rounds to the same float64
		// (possible only for astronomically wide segments). The prediction
		// at x = 0 is y0 for every slope, so the point fits iff
		// |y − y0| ≤ ε; otherwise the segment must end here.
		if math.Abs(y-b.y0) <= b.eps {
			b.lastKey, b.pmax = k, pos
			b.count++
			return nil
		}
		if err := b.emitSegment(); err != nil {
			return err
		}
		b.startSegment(k, pos)
		return nil
	}

	// Shrinking cone: slopes that keep this point within ±ε of the line
	// anchored at (0, y0).
	lo := (y - b.eps - b.y0) / x
	hi := (y + b.eps - b.y0) / x
	newLo, newHi := b.loSlope, b.hiSlope
	if lo > newLo {
		newLo = lo
	}
	if hi < newHi {
		newHi = hi
	}
	if newLo <= newHi {
		b.loSlope, b.hiSlope = newLo, newHi
		b.lastKey, b.pmax = k, pos
		b.count++
		return nil
	}
	if err := b.emitSegment(); err != nil {
		return err
	}
	b.startSegment(k, pos)
	return nil
}

func (b *Builder) startSegment(k types.CompoundKey, pos int64) {
	b.started = true
	b.kmin, b.lastKey = k, k
	b.y0 = float64(pos)
	b.pmax = pos
	b.loSlope, b.hiSlope = 0, math.Inf(1)
	b.count = 1
}

func (b *Builder) emitSegment() error {
	sl := 0.0
	switch {
	case math.IsInf(b.hiSlope, 1):
		// Single point, or all extra points at x = 0: any slope works for
		// the covered points; 0 keeps predictions at y0.
		sl = b.loSlope
	default:
		sl = (b.loSlope + b.hiSlope) / 2
	}
	m := Model{KMin: b.kmin, Slope: sl, Intercept: b.y0, PMax: b.pmax}
	b.models++
	return b.emit(m)
}

// Finish flushes the trailing segment. The builder must not be reused.
func (b *Builder) Finish() error {
	if !b.started {
		return nil
	}
	b.started = false
	return b.emitSegment()
}

// Models returns the number of models emitted so far (excluding any open
// segment).
func (b *Builder) Models() int64 { return b.models }

// SearchPage performs the predecessor binary search of Algorithm 7 over a
// page of encoded models: it returns the rightmost model with kmin ≤ key
// and its index within the page. ok is false when key precedes every model
// on the page. Runs search their index decoded and resident; this is the
// on-disk form of the same search, which the benchmark's pla probe and
// the run package's reference descent use.
func SearchPage(page []byte, n int, key types.CompoundKey) (Model, int, bool) {
	lo, hi := 0, n-1
	found := -1
	var keyBytes [types.CompoundKeySize]byte
	key.PutBytes(keyBytes[:])
	for lo <= hi {
		mid := (lo + hi) / 2
		off := mid * ModelSize
		if cmpKeyBytes(page[off:off+types.CompoundKeySize], keyBytes[:]) <= 0 {
			found = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if found < 0 {
		return Model{}, -1, false
	}
	m, err := DecodeModel(page[found*ModelSize:])
	if err != nil {
		return Model{}, -1, false
	}
	return m, found, true
}

func cmpKeyBytes(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
