package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestContractMatchesCode: BENCHMARK.json and the tables in this package
// name the same workloads and metrics, with the same units, directions,
// bounds and run length.
func TestContractMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q (%q) in BENCHMARK.json, %q (%q) in code", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in code", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in code", i, m, d)
		}
	}
}

// checkMetrics: every declared metric is emitted exactly once, finite, in
// its declared unit, and nothing undeclared is.
func checkMetrics(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", r.Workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", r.Workload, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: %s in %q, declared %q", r.Workload, d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", r.Workload, d.name, m.Value)
		}
	}
	if r.Failed != 0 || !r.Correct {
		t.Errorf("%s: %d of %d operations failed: %v", r.Workload, r.Failed, r.Attempted, r.Failures)
	}
}

// TestSmoke runs every workload at 1/100 scale, untraced twice and traced
// once, and checks what BENCHMARK.json promises: every metric, no failed
// operation, and the same seed ending on the same digest and counters.
func TestSmoke(t *testing.T) {
	o := options{seed: 7, seconds: defaultSeconds, divisor: 100, tmp: t.TempDir()}
	for _, s := range specs {
		first, err := runWorkload(s, o)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, first, endToEnd)
		for _, d := range endToEnd {
			if first.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v, must never be 0", s.name, d.name, first.Metrics[d.name].Value)
			}
		}
		again, err := runWorkload(s, o)
		if err != nil {
			t.Fatal(err)
		}
		if first.RootDigest != again.RootDigest {
			t.Errorf("%s: same seed, digests %s and %s", s.name, first.RootDigest, again.RootDigest)
		}
		if exactWorkloads[s.name] && !reflect.DeepEqual(first.Exact, again.Exact) {
			t.Errorf("%s: same seed, counters %v and %v", s.name, first.Exact, again.Exact)
		}

		o.traceOut = o.tmp + "/trace-" + s.name + ".jsonl"
		traced, err := runTraced(s, o)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, traced, perLayer)
		if st, err := os.Stat(o.traceOut); err != nil || st.Size() == 0 {
			t.Errorf("%s: no spans written: %v", s.name, err)
		}
		if traced.RootDigest != first.RootDigest {
			t.Errorf("%s: traced run ended on %s, untraced on %s", s.name, traced.RootDigest, first.RootDigest)
		}
	}
}

// TestOracle: the dense oracle agrees with a map-based model of "the last
// write of a block wins".
func TestOracle(t *testing.T) {
	writes := []uint32{0, 1, 0, 2, 1}
	for len(writes) < 2*blockTx {
		writes = append(writes, 3)
	}
	writes[blockTx] = 0 // block 2 rewrites key 0
	o := newOracle(4, writes)
	if got := o.latest(0, blockTx); got != 3 {
		t.Errorf("latest(0) after block 1 = %d, want 3 (the later write of the block)", got)
	}
	if got := o.latest(0, uint32(len(writes))); got != blockTx+1 {
		t.Errorf("latest(0) after block 2 = %d, want %d", got, blockTx+1)
	}
	if got := o.at(0, 1); got != 3 {
		t.Errorf("at(0, height 1) = %d, want 3", got)
	}
	if got := o.window(1, 1, 1, uint32(len(writes))); !reflect.DeepEqual(got, []uint32{5}) {
		t.Errorf("window(1) = %v, want [5]", got)
	}
	if got := o.window(3, 2, 2, blockTx); len(got) != 0 {
		t.Errorf("window(3) in block 2 before it committed = %v, want none", got)
	}
	k, s, ok := decodeValue(encodeValue(9, 77))
	if !ok || k != 9 || s != 77 {
		t.Errorf("value round trip: %d %d %v", k, s, ok)
	}
	v := encodeValue(9, 77)
	v[3] ^= 1
	if _, _, ok := decodeValue(v); ok {
		t.Error("a corrupted value passed its checksum")
	}
}
