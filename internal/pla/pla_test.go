package pla

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"cole/internal/types"
)

// buildAll runs the builder over sorted points and returns the models.
func buildAll(t *testing.T, eps int, keys []types.CompoundKey) []Model {
	t.Helper()
	var models []Model
	b, err := NewBuilder(eps, func(m Model) error { models = append(models, m); return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := b.Add(k, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if b.Total() != int64(len(keys)) {
		t.Fatalf("Total = %d, want %d", b.Total(), len(keys))
	}
	return models
}

// checkBound asserts the Definition 1 guarantee for every point: the model
// covering the key predicts within ±eps of the true position.
func checkBound(t *testing.T, eps int, keys []types.CompoundKey, models []Model) {
	t.Helper()
	if len(models) == 0 && len(keys) > 0 {
		t.Fatal("no models emitted")
	}
	for i, k := range keys {
		m := coveringModel(models, k)
		pred := m.Predict(k)
		if d := pred - int64(i); d > int64(eps) || d < -int64(eps) {
			t.Fatalf("key %d: |pred %d - real %d| > ε=%d (model %+v)", i, pred, i, eps, m)
		}
	}
}

// coveringModel finds the rightmost model with kmin ≤ k (what SearchPage
// does over the on-disk layout).
func coveringModel(models []Model, k types.CompoundKey) Model {
	idx := sort.Search(len(models), func(i int) bool { return k.Cmp(models[i].KMin) < 0 })
	if idx == 0 {
		return models[0]
	}
	return models[idx-1]
}

func seqKeys(addrSeed uint64, n int) []types.CompoundKey {
	keys := make([]types.CompoundKey, n)
	a := types.AddressFromUint64(addrSeed)
	for i := range keys {
		keys[i] = types.CompoundKey{Addr: a, Blk: uint64(i)}
	}
	return keys
}

func TestLinearStreamUsesOneModel(t *testing.T) {
	keys := seqKeys(1, 10000)
	models := buildAll(t, 34, keys)
	if len(models) != 1 {
		t.Fatalf("perfectly linear data needs 1 model, got %d", len(models))
	}
	checkBound(t, 34, keys, models)
	if models[0].PMax != int64(len(keys)-1) {
		t.Fatalf("PMax = %d, want %d", models[0].PMax, len(keys)-1)
	}
}

func TestStridedStreamStaysLinear(t *testing.T) {
	// Versions every 7 blocks: still one line.
	a := types.AddressFromUint64(9)
	keys := make([]types.CompoundKey, 5000)
	for i := range keys {
		keys[i] = types.CompoundKey{Addr: a, Blk: uint64(i * 7)}
	}
	models := buildAll(t, 34, keys)
	if len(models) != 1 {
		t.Fatalf("strided linear data needs 1 model, got %d", len(models))
	}
	checkBound(t, 34, keys, models)
}

func TestMultiAddressStream(t *testing.T) {
	// The realistic run shape: many addresses, a few versions each, huge key
	// gaps between addresses. The bound must hold everywhere.
	r := rand.New(rand.NewSource(42))
	var keys []types.CompoundKey
	for a := 0; a < 300; a++ {
		addr := types.AddressFromUint64(uint64(a))
		nv := 1 + r.Intn(8)
		blk := uint64(r.Intn(100))
		for v := 0; v < nv; v++ {
			keys = append(keys, types.CompoundKey{Addr: addr, Blk: blk})
			blk += 1 + uint64(r.Intn(50))
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	models := buildAll(t, 34, keys)
	checkBound(t, 34, keys, models)
	if len(models) >= len(keys) {
		t.Fatalf("learned index degenerated: %d models for %d keys", len(models), len(keys))
	}
}

func TestSmallEpsilon(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var keys []types.CompoundKey
	for a := 0; a < 100; a++ {
		keys = append(keys, types.CompoundKey{Addr: types.AddressFromUint64(uint64(a)), Blk: uint64(r.Intn(1000))})
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	for _, eps := range []int{1, 2, 5} {
		models := buildAll(t, eps, keys)
		checkBound(t, eps, keys, models)
	}
}

func TestEpsilonBelowOneRejected(t *testing.T) {
	if _, err := NewBuilder(0, func(Model) error { return nil }); err == nil {
		t.Fatal("eps 0 must be rejected")
	}
}

func TestSinglePoint(t *testing.T) {
	keys := seqKeys(2, 1)
	models := buildAll(t, 34, keys)
	if len(models) != 1 {
		t.Fatalf("got %d models", len(models))
	}
	if p := models[0].Predict(keys[0]); p != 0 {
		t.Fatalf("single point predicts %d, want 0", p)
	}
}

func TestEmptyStream(t *testing.T) {
	models := buildAll(t, 34, nil)
	if len(models) != 0 {
		t.Fatal("empty stream must emit no models")
	}
}

func TestNonIncreasingKeysRejected(t *testing.T) {
	b, _ := NewBuilder(34, func(Model) error { return nil })
	k := types.CompoundKey{Addr: types.AddressFromUint64(1), Blk: 5}
	if err := b.Add(k, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(k, 1); err == nil {
		t.Fatal("duplicate key must be rejected")
	}
	b2, _ := NewBuilder(34, func(Model) error { return nil })
	_ = b2.Add(types.CompoundKey{Addr: types.AddressFromUint64(2), Blk: 5}, 0)
	if err := b2.Add(types.CompoundKey{Addr: types.AddressFromUint64(2), Blk: 4}, 1); err == nil {
		t.Fatal("decreasing key must be rejected")
	}
}

func TestNonIncreasingPositionsRejected(t *testing.T) {
	b, _ := NewBuilder(34, func(Model) error { return nil })
	a := types.AddressFromUint64(3)
	_ = b.Add(types.CompoundKey{Addr: a, Blk: 1}, 5)
	if err := b.Add(types.CompoundKey{Addr: a, Blk: 2}, 5); err == nil {
		t.Fatal("repeated position must be rejected")
	}
}

func TestIdenticalFloatDeltaSplits(t *testing.T) {
	// Construct keys whose deltas from the anchor collapse to the same
	// float64 but whose positions differ by more than ε: builder must split
	// rather than emit an invalid model. Deltas ~2^160 with +1 offsets all
	// round to the same float64.
	var base types.Address // zero address
	keys := []types.CompoundKey{{Addr: base, Blk: 0}}
	var far types.Address
	far[0] = 0x80 // delta ≈ 2^223
	for i := 0; i < 200; i++ {
		k := types.CompoundKey{Addr: far, Blk: uint64(i)} // all ≈ same float delta
		keys = append(keys, k)
	}
	models := buildAll(t, 5, keys)
	checkBound(t, 5, keys, models)
	if len(models) < 2 {
		t.Fatalf("expected split on float-collapsed deltas, got %d models", len(models))
	}
}

func TestPredictClampsToPMax(t *testing.T) {
	m := Model{KMin: types.CompoundKey{Addr: types.AddressFromUint64(1)}, Slope: 10, Intercept: 0, PMax: 7}
	k := types.CompoundKey{Addr: types.AddressFromUint64(1), Blk: 1000}
	if p := m.Predict(k); p != 7 {
		t.Fatalf("Predict = %d, want clamp at PMax 7", p)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := Model{
		KMin:      types.CompoundKey{Addr: types.AddressFromUint64(77), Blk: 123},
		Slope:     0.5,
		Intercept: 42.25,
		PMax:      99,
	}
	buf := make([]byte, ModelSize)
	m.Encode(buf)
	got, err := DecodeModel(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	if _, err := DecodeModel(buf[:10]); err == nil {
		t.Fatal("short record must error")
	}
}

func TestSearchPage(t *testing.T) {
	// Lay out 10 models with kmin = blk 10,20,...,100 on one page.
	a := types.AddressFromUint64(5)
	page := make([]byte, 10*ModelSize)
	for i := 0; i < 10; i++ {
		m := Model{KMin: types.CompoundKey{Addr: a, Blk: uint64((i + 1) * 10)}, PMax: int64(i)}
		m.Encode(page[i*ModelSize:])
	}
	// Exact hit.
	m, idx, ok := SearchPage(page, 10, types.CompoundKey{Addr: a, Blk: 50})
	if !ok || idx != 4 || m.KMin.Blk != 50 {
		t.Fatalf("exact: ok=%v idx=%d kmin=%d", ok, idx, m.KMin.Blk)
	}
	// Between models → predecessor.
	m, idx, ok = SearchPage(page, 10, types.CompoundKey{Addr: a, Blk: 55})
	if !ok || idx != 4 || m.KMin.Blk != 50 {
		t.Fatalf("between: ok=%v idx=%d kmin=%d", ok, idx, m.KMin.Blk)
	}
	// Before first → not found.
	if _, _, ok := SearchPage(page, 10, types.CompoundKey{Addr: a, Blk: 5}); ok {
		t.Fatal("key before first model must report !ok")
	}
	// After last → last model.
	m, idx, ok = SearchPage(page, 10, types.CompoundKey{Addr: a, Blk: 1 << 40})
	if !ok || idx != 9 || m.KMin.Blk != 100 {
		t.Fatalf("after: ok=%v idx=%d kmin=%d", ok, idx, m.KMin.Blk)
	}
}

func TestSegmentCountReasonableOnRandomData(t *testing.T) {
	// ε=34 should compress ~1 model per ≥ 2ε points on average-ish data;
	// here we just assert meaningful compression (≥ 8× fewer models than
	// keys) for uniformly random block gaps of a single address.
	r := rand.New(rand.NewSource(11))
	a := types.AddressFromUint64(8)
	keys := make([]types.CompoundKey, 20000)
	blk := uint64(0)
	for i := range keys {
		blk += 1 + uint64(r.Intn(10))
		keys[i] = types.CompoundKey{Addr: a, Blk: blk}
	}
	models := buildAll(t, 34, keys)
	if len(models)*8 > len(keys) {
		t.Fatalf("poor compression: %d models for %d keys", len(models), len(keys))
	}
	checkBound(t, 34, keys, models)
}

func TestBoundProperty(t *testing.T) {
	// Property: for arbitrary sorted key sets and ε ∈ {1..64}, every point
	// prediction is within ε (testing/quick drives the randomness).
	f := func(seed int64, rawEps uint8, nAddrs uint8) bool {
		eps := int(rawEps%64) + 1
		na := int(nAddrs%20) + 1
		r := rand.New(rand.NewSource(seed))
		keySet := make(map[types.CompoundKey]bool)
		for a := 0; a < na; a++ {
			addr := types.AddressFromUint64(r.Uint64() % 1000)
			for v := 0; v < 1+r.Intn(30); v++ {
				keySet[types.CompoundKey{Addr: addr, Blk: r.Uint64() % 10000}] = true
			}
		}
		keys := make([]types.CompoundKey, 0, len(keySet))
		for k := range keySet {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })

		var models []Model
		b, err := NewBuilder(eps, func(m Model) error { models = append(models, m); return nil })
		if err != nil {
			return false
		}
		for i, k := range keys {
			if err := b.Add(k, int64(i)); err != nil {
				return false
			}
		}
		if err := b.Finish(); err != nil {
			return false
		}
		for i, k := range keys {
			m := coveringModel(models, k)
			if d := m.Predict(k) - int64(i); d > int64(eps) || d < -int64(eps) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSlopesAreFinite(t *testing.T) {
	// Adjacent keys with gap 1 and positions with gap 1: slope 1 exactly,
	// never NaN/Inf in emitted models.
	keys := seqKeys(4, 100)
	for _, m := range buildAll(t, 1, keys) {
		if math.IsNaN(m.Slope) || math.IsInf(m.Slope, 0) {
			t.Fatalf("bad slope %v", m.Slope)
		}
		if math.IsNaN(m.Intercept) || math.IsInf(m.Intercept, 0) {
			t.Fatalf("bad intercept %v", m.Intercept)
		}
	}
}
