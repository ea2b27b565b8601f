package workload

import (
	"encoding/binary"
	"math/rand"

	"cole/internal/types"
)

// loadSeedSalt decouples the load phase's value stream from the running
// phase's, so generating (or skipping) the load never shifts the run.
const loadSeedSalt = 0x0c01e_10ad

// kvGen is the shared machinery of the Spec-driven key-value
// generators: a sampler picks key indexes, the mix draw decides read vs
// write, and written values carry a deterministic ValueSize payload.
type kvGen struct {
	spec Spec
	rng  *rand.Rand
	pick func() uint64
	buf  []byte // payload scratch, spec.ValueSize bytes
	seq  uint64
}

func newKVGen(spec Spec, sampler func(rng *rand.Rand) func() uint64) *kvGen {
	rng := rand.New(rand.NewSource(spec.Seed))
	return &kvGen{
		spec: spec,
		rng:  rng,
		pick: sampler(rng),
		buf:  make([]byte, spec.ValueSize),
	}
}

// Name implements Generator.
func (g *kvGen) Name() string { return g.spec.Name }

// Key returns the address of the i-th key of the population.
func Key(i uint64) types.Address { return types.AddressFromUint64(i) }

// Load implements Generator: one write per key of the population, with
// payloads drawn from a salted seed so the running stream is unchanged
// whether or not the caller applies the load.
func (g *kvGen) Load() []types.Update {
	rng := rand.New(rand.NewSource(g.spec.Seed ^ loadSeedSalt))
	buf := make([]byte, g.spec.ValueSize)
	updates := make([]types.Update, g.spec.Keys)
	for i := range updates {
		updates[i] = types.Update{Addr: Key(uint64(i)), Value: payload(rng, buf, uint64(i), 0)}
	}
	return updates
}

// Next implements Generator. Draw order is fixed (mix, key, value), so
// the stream is identical for every generator built from the same spec.
func (g *kvGen) Next() Op {
	read := g.rng.Float64() < g.spec.ReadFraction
	idx := g.pick()
	if read {
		return Op{Addr: Key(idx), Read: true}
	}
	g.seq++
	return Op{Addr: Key(idx), Value: payload(g.rng, g.buf, idx, g.seq)}
}

// payload fills buf with a deterministic pseudo-random value of the
// spec's logical size — the generation cost of a real ValueSize-byte
// write — then folds it into the fixed-width stored value (oversized
// payloads are hashed down by ValueFromBytes).
func payload(rng *rand.Rand, buf []byte, key, seq uint64) types.Value {
	rng.Read(buf)
	if len(buf) >= 8 {
		binary.BigEndian.PutUint64(buf, seq)
	}
	if len(buf) >= 16 {
		binary.BigEndian.PutUint64(buf[8:], key)
	}
	return types.ValueFromBytes(buf)
}
