package workload

import (
	"strings"
	"testing"

	"cole/internal/types"
)

func TestSpecDefaultsAndLabel(t *testing.T) {
	s := Spec{}.WithDefaults()
	if s.Name != "uniform" || s.Keys != 1000 || s.ValueSize != types.ValueSize {
		t.Fatalf("defaults: %+v", s)
	}
	if s.TxPerBlock == 0 || s.Duration == 0 || s.Seed == 0 {
		t.Fatalf("harness defaults unset: %+v", s)
	}
	if got := (Spec{Name: "zipfian", ReadFraction: 0.5}).Label(); got != "zipfian/r50" {
		t.Fatalf("label %q", got)
	}
	if got := (Spec{Name: "uniform", ReadFraction: 0.95}).Label(); got != "uniform/r95" {
		t.Fatalf("label %q", got)
	}
}

// names are the generators New knows.
var names = []string{"uniform", "zipfian"}

func TestRegistryNamesAndUnknown(t *testing.T) {
	_, err := New(Spec{Name: "no-such-distribution"})
	if err == nil || !strings.Contains(err.Error(), "unknown generator") {
		t.Fatalf("err = %v", err)
	}
	// The error lists what is available.
	for _, want := range names {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-name error %q does not list %q", err, want)
		}
	}
}

func TestSpecGeneratorsDeterministicPerSeed(t *testing.T) {
	// For every generator: two instances from the same spec produce
	// identical load and run streams; a different seed produces a
	// different stream.
	for _, name := range names {
		spec := Spec{Name: name, Keys: 128, ReadFraction: 0.3, Seed: 11}
		a, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != name {
			t.Fatalf("generator reports name %q", a.Name())
		}
		la, lb := a.Load(), b.Load()
		if len(la) != len(lb) || len(la) != spec.Keys {
			t.Fatalf("%s: load sizes %d/%d", name, len(la), len(lb))
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("%s: load diverged at %d", name, i)
			}
		}
		for i := 0; i < 2000; i++ {
			if a.Next() != b.Next() {
				t.Fatalf("%s: run streams diverged at op %d", name, i)
			}
		}

		reseeded := spec
		reseeded.Seed = 12
		c, err := New(reseeded)
		if err != nil {
			t.Fatal(err)
		}
		same := 0
		for i := 0; i < 200; i++ {
			if a.Next() == c.Next() {
				same++
			}
		}
		if same == 200 {
			t.Fatalf("%s: different seeds produced identical streams", name)
		}
	}
}

func TestSpecLoadCoversPopulation(t *testing.T) {
	g, err := New(Spec{Name: "zipfian", Keys: 300})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[types.Address]bool{}
	for _, u := range g.Load() {
		seen[u.Addr] = true
	}
	if len(seen) != 300 {
		t.Fatalf("load covered %d distinct keys, want 300", len(seen))
	}
	for i := uint64(0); i < 300; i++ {
		if !seen[Key(i)] {
			t.Fatalf("key %d missing from load", i)
		}
	}
}

func TestSpecOpsStayInPopulationAndHonorMix(t *testing.T) {
	for _, name := range names {
		g, err := New(Spec{Name: name, Keys: 50, ReadFraction: 0.5, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		valid := map[types.Address]bool{}
		for i := uint64(0); i < 50; i++ {
			valid[Key(i)] = true
		}
		reads := 0
		for i := 0; i < 4000; i++ {
			op := g.Next()
			if !valid[op.Addr] {
				t.Fatalf("%s: op key outside the population", name)
			}
			if op.Read {
				reads++
				if op.Value != (types.Value{}) {
					t.Fatalf("%s: read carries a value", name)
				}
			}
		}
		// Binomial(4000, 0.5): ±5 sigma ≈ ±158.
		if reads < 1800 || reads > 2200 {
			t.Fatalf("%s: %d/4000 reads for ReadFraction 0.5", name, reads)
		}
	}
}

// topShare returns the traffic share of the hottest `frac` of the key
// population over n samples.
func topShare(t *testing.T, g Generator, keys int, frac float64, n int) float64 {
	t.Helper()
	counts := map[types.Address]int{}
	for i := 0; i < n; i++ {
		counts[g.Next().Addr]++
	}
	hot := 0
	hotKeys := int(float64(keys) * frac)
	if hotKeys < 1 {
		hotKeys = 1
	}
	// The built-in distributions concentrate mass on the lowest indexes,
	// so the hottest keys are Key(0..hotKeys).
	for i := uint64(0); i < uint64(hotKeys); i++ {
		hot += counts[Key(i)]
	}
	return float64(hot) / float64(n)
}

func TestZipfianSkewTop1Percent(t *testing.T) {
	// YCSB's zipfian (s=1.01, v=1) over 10k keys puts roughly half the
	// traffic on the hottest 1% of keys. The exact share for finite n is
	// sum-of-harmonics; assert a band wide enough for sampling noise but
	// far from uniform (where 1% of keys would take 1% of traffic).
	spec := Spec{Name: "zipfian", Keys: 10_000, Seed: 21}
	g, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	share := topShare(t, g, spec.Keys, 0.01, 200_000)
	if share < 0.35 || share > 0.75 {
		t.Fatalf("top-1%% share %.3f outside [0.35, 0.75]", share)
	}
	// Deterministic per seed: an identical generator reproduces the
	// share exactly.
	h, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again := topShare(t, h, spec.Keys, 0.01, 200_000); again != share {
		t.Fatalf("same seed, different skew: %.6f vs %.6f", again, share)
	}
}

func TestUniformSpreadsTraffic(t *testing.T) {
	g, err := New(Spec{Name: "uniform", Keys: 1000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if share := topShare(t, g, 1000, 0.01, 100_000); share > 0.03 {
		t.Fatalf("uniform top-1%% share %.4f — skew where none belongs", share)
	}
}

func TestWriteSequencesDistinct(t *testing.T) {
	// Written values embed a monotone sequence number, so re-writing the
	// same key in the same block still produces distinct entries — the
	// property commit-level dedup tests rely on.
	g, err := New(Spec{Name: "uniform", Keys: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[types.Value]bool{}
	for i := 0; i < 500; i++ {
		op := g.Next()
		if op.Read {
			continue
		}
		if seen[op.Value] {
			t.Fatalf("duplicate write payload at op %d", i)
		}
		seen[op.Value] = true
	}
}
