package workload

import (
	"fmt"
	"math/rand"
	"time"

	"cole/internal/types"
)

// Spec declares a workload: the key population and its access
// distribution, the read/write mix, the value payload size, and how the
// open loop should run it (duration, warm-up, target rate,
// block size, seed). A Spec is pure data — New builds the
// generator it names — so workloads can be enumerated, serialized into
// benchmark reports, and swept as a matrix.
type Spec struct {
	// Name selects a generator: "uniform" or "zipfian".
	Name string
	// Keys is the key population: the base records written by the load
	// phase and the domain every operation draws from.
	Keys int
	// ValueSize is the logical value payload in bytes. Stored values are
	// fixed 32-byte states; larger payloads are generated then hashed
	// down (types.ValueFromBytes), so the generation cost is paid but
	// the storage accounting stays entry-sized.
	ValueSize int
	// ReadFraction is the fraction of operations that are point reads
	// (0 = write-only, 1 = read-only).
	ReadFraction float64
	// ZipfS and ZipfV shape the zipfian distribution (defaults match
	// YCSB's request distribution: s = 1.01, v = 1).
	ZipfS, ZipfV float64
	// TxPerBlock is how many write operations fill one committed block.
	TxPerBlock int
	// Duration is the measured open-loop run length; WarmUp runs the
	// identical loop first without recording.
	Duration time.Duration
	WarmUp   time.Duration
	// Rate is the target operation arrival rate in ops/second. 0 runs
	// closed-loop (as fast as the store allows); > 0 schedules issue
	// times up front so recorded latency includes queueing delay — the
	// open-loop convention that makes tail latency honest under
	// saturation (no coordinated omission).
	Rate float64
	// Seed makes every generated key/value stream deterministic.
	Seed int64
}

// WithDefaults fills unset fields with smoke-scale values.
func (s Spec) WithDefaults() Spec {
	if s.Name == "" {
		s.Name = "uniform"
	}
	if s.Keys == 0 {
		s.Keys = 1000
	}
	if s.ValueSize == 0 {
		s.ValueSize = types.ValueSize
	}
	if s.ZipfS == 0 {
		s.ZipfS = 1.01
	}
	if s.ZipfV == 0 {
		s.ZipfV = 1
	}
	if s.TxPerBlock == 0 {
		s.TxPerBlock = 100
	}
	if s.Duration == 0 {
		s.Duration = 2 * time.Second
	}
	if s.WarmUp == 0 {
		s.WarmUp = 200 * time.Millisecond
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	return s
}

// Label names the workload row in reports: generator plus read mix,
// e.g. "zipfian/r50".
func (s Spec) Label() string {
	return fmt.Sprintf("%s/r%.0f", s.Name, s.ReadFraction*100)
}

// Op is one generated operation against a store: a point read of Addr,
// or a write of Value to Addr.
type Op struct {
	Addr  types.Address
	Value types.Value
	Read  bool
}

// Generator yields a deterministic operation stream for one Spec. A
// generator is single-goroutine state; the harness owns exactly one per
// run and fans the resulting operations out itself, so the generated
// key/value stream is identical for every run with the same seed.
type Generator interface {
	// Name returns the generator name.
	Name() string
	// Load returns the base-population writes applied (in blocks) before
	// the clock starts, YCSB load/run style.
	Load() []types.Update
	// Next returns the next operation of the running phase.
	Next() Op
}

// New builds the generator spec.Name names from the defaulted spec: a
// uniform baseline or the YCSB zipfian request distribution.
func New(spec Spec) (Generator, error) {
	spec = spec.WithDefaults()
	var sampler func(rng *rand.Rand) func() uint64
	switch spec.Name {
	case "uniform":
		sampler = func(rng *rand.Rand) func() uint64 {
			n := uint64(spec.Keys)
			return func() uint64 { return rng.Uint64() % n }
		}
	case "zipfian":
		sampler = func(rng *rand.Rand) func() uint64 {
			return rand.NewZipf(rng, spec.ZipfS, spec.ZipfV, uint64(spec.Keys-1)).Uint64
		}
	default:
		return nil, fmt.Errorf("workload: unknown generator %q (have: uniform zipfian)", spec.Name)
	}
	return newKVGen(spec, sampler), nil
}
