package main

import (
	"fmt"
	"math/rand"

	"cole"
	"cole/internal/workload"
)

// rounds is how many times a run sets the store up and measures it. Every
// round does the same work on a fresh store; a metric is the median of
// its per-round values, so one disturbed round does not move it and
// setup_s is the median of several set-ups.
const rounds = 3

// warmShare of every measured phase's operations run first, unrecorded.
const warmShare = 0.05

// provWindow is the width, in blocks, of a provenance query.
const provWindow = 64

// tamperEvery: one provenance proof in this many is corrupted before it
// is verified, and must be rejected.
const tamperEvery = 1000

type phaseKind int

const (
	phaseWrite phaseKind = iota
	phaseGet
	phaseProv
)

// spec fixes one workload. The operation counts are rates: operations per
// second of -seconds, summed over the rounds. They are constants chosen
// so that the phases of a round together take about seconds/rounds on the
// commit that introduced the benchmark, and are never calibrated at run
// time: two builds given the same -seconds and -seed do identical work,
// so LSM shape, write amplification and digests compare exactly.
type spec struct {
	name string
	why  string

	shards int  // 0: cole.Open; else cole.OpenSharded with this many shards
	async  bool // COLE* (AsyncMerge)

	keys          int  // written key population
	preloadPasses int  // set-up: sequential passes over every key
	preloadRandom int  // set-up: then this many uniform updates
	reopen        bool // set-up: close and reopen after the preload
	zipf          bool // measured writes and hit reads are zipfian(1.01), else uniform

	writeRate, getRate, provRate int
	readers                      int  // goroutines of the get phase
	concurrent                   bool // the get phase runs beside the write phase until the writer ends
	order                        []phaseKind
}

// absentKeys is the number of never-written keys that absent-key reads
// draw from.
const absentKeys = 1 << 16

var specs = []spec{
	{
		name: "ingest",
		why:  "write path dominates: 1 writer pushes uniform updates through 41 flushes and 13 merges on COLE with synchronous merges; reads and proofs get a short slice on the state it leaves",
		keys: 200_000, preloadPasses: 1,
		writeRate: 34_000, getRate: 54_000, provRate: 450, readers: 1,
		order: []phaseKind{phaseWrite, phaseGet, phaseProv},
	},
	{
		name: "point_read",
		why:  "read path dominates: 2 readers on a reopened 3-version store far larger than the 64 KiB-per-file page cache (miss-bound); the write path is idle until a short slice afterwards",
		keys: 80_000, preloadPasses: 3, reopen: true,
		writeRate: 12_000, getRate: 225_000, provRate: 620, readers: 2,
		order: []phaseKind{phaseGet, phaseProv, phaseWrite},
	},
	{
		name: "prov",
		why:  "provenance path dominates: verified 64-block range proofs over 1000 addresses of about 200 versions each; Bloom filters and page-cache policy barely matter",
		keys: 1_000, preloadPasses: 1, preloadRandom: 199_000,
		writeRate: 22_000, getRate: 74_000, provRate: 1_750, readers: 1,
		order: []phaseKind{phaseProv, phaseGet, phaseWrite},
	},
	{
		name:   "node_mixed",
		why:    "reads beside writes: zipfian writer and reader run together on 2-shard COLE* with asynchronous merges; hot set fits L0 and the cache",
		shards: 2, async: true, zipf: true,
		keys: 200_000, preloadPasses: 1,
		writeRate: 54_000, getRate: 60_000, provRate: 590, readers: 1, concurrent: true,
		order: []phaseKind{phaseWrite, phaseProv},
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// open opens (or reopens) the workload's store in dir: default Options on
// the real filesystem, so the default flush policy applies (every run and
// manifest file is fsynced, with its directory, when it is renamed into
// place).
func (s spec) open(dir string, tr *cole.Tracer) (cole.DB, error) {
	opts := cole.Options{Dir: dir, AsyncMerge: s.async, Trace: tr, Shards: s.shards}
	// A nil *Store in a cole.DB would not compare equal to nil.
	if s.shards > 0 {
		db, err := cole.OpenSharded(opts)
		if err != nil {
			return nil, err
		}
		return db, nil
	}
	db, err := cole.Open(opts)
	if err != nil {
		return nil, err
	}
	return db, nil
}

// Kinds of point read.
const (
	getHit    uint8 = iota // latest value of a written key
	getAbsent              // a key that was never written
	getAt                  // value of a written key at a past height
)

type getOp struct {
	key  uint32
	blk  uint32 // getAt only
	kind uint8
}

type provOp struct {
	key uint32
	lo  uint32 // window is [lo, lo+provWindow-1]
}

// inputs is everything a run feeds the store, made from the seed before
// any clock starts. The store sees only these.
type inputs struct {
	spec    spec
	addrs   []cole.Address // keys, then absentKeys never-written ones
	writes  []uint32       // key of write i+1: the preload, then the write phase
	preload int            // writes[:preload] are applied during set-up
	warm    int            // writes[preload:preload+warm] are the unrecorded warm-up
	gets    []getOp        // per reader: gets[r*perReader:(r+1)*perReader]
	getWarm int            // per reader
	provs   []provOp
	provWrm int
	oracle  *oracle
}

// opCount turns a rate into the per-round operation count for a run of
// the given length.
func opCount(rate int, seconds float64, divisor int) int {
	return max(int(float64(rate)*seconds/float64(rounds)/float64(divisor)), 20)
}

// wholeBlocks rounds n up to a multiple of blockTx.
func wholeBlocks(n int) int { return (n + blockTx - 1) / blockTx * blockTx }

// newInputs materialises the workload's operation streams. divisor > 1
// shrinks preload and operation counts alike (the smoke scale).
func newInputs(s spec, seed int64, seconds float64, divisor int) *inputs {
	in := &inputs{spec: s}
	s.keys = max(s.keys/divisor, blockTx)
	s.preloadRandom = s.preloadRandom / divisor / blockTx * blockTx
	in.spec = s
	rng := rand.New(rand.NewSource(seed))

	in.addrs = make([]cole.Address, s.keys+absentKeys)
	// A seed-dependent base keeps the address population, and with it
	// Bloom and learned-index behaviour, varying with the seed.
	base := rng.Uint64() >> 1
	for i := range in.addrs {
		in.addrs[i] = workload.Key(base + uint64(i))
	}

	pick := func() uint32 { return uint32(rng.Intn(s.keys)) }
	hot := pick
	if s.zipf {
		z := rand.NewZipf(rng, 1.01, 1, uint64(s.keys-1))
		hot = func() uint32 { return uint32(z.Uint64()) }
	}

	nWrite := wholeBlocks(opCount(s.writeRate, seconds, divisor))
	in.preload = wholeBlocks(s.keys*s.preloadPasses + s.preloadRandom)
	in.warm = int(float64(nWrite)*warmShare) / blockTx * blockTx
	in.writes = make([]uint32, 0, in.preload+nWrite)
	for p := 0; p < s.preloadPasses; p++ {
		for k := 0; k < s.keys; k++ {
			in.writes = append(in.writes, uint32(k))
		}
	}
	for len(in.writes) < in.preload {
		in.writes = append(in.writes, pick())
	}
	for i := 0; i < nWrite; i++ {
		in.writes = append(in.writes, hot())
	}
	in.oracle = newOracle(s.keys, in.writes)

	// Reads address the state their phase starts from: the preloaded
	// store, plus the write phase when that comes first. Readers that run
	// beside the writer start with it.
	heightBefore := func(k phaseKind) uint64 {
		h := uint64(in.preload / blockTx)
		for _, p := range s.order {
			if p == k || (k == phaseGet && s.concurrent) {
				break
			}
			if p == phaseWrite {
				h += uint64(nWrite / blockTx)
			}
		}
		return h
	}
	height := heightBefore(phaseGet)
	firstFull := uint64((s.keys + blockTx - 1) / blockTx) // every key exists from here on

	perReader := opCount(s.getRate, seconds, divisor)/s.readers + 1
	in.getWarm = int(float64(perReader) * warmShare)
	in.gets = make([]getOp, perReader*s.readers)
	for i := range in.gets {
		switch r := rng.Intn(10); {
		case r < 8:
			in.gets[i] = getOp{key: hot(), kind: getHit}
		case r == 8:
			in.gets[i] = getOp{key: uint32(s.keys + rng.Intn(absentKeys)), kind: getAbsent}
		default:
			blk := firstFull + uint64(rng.Int63n(int64(height-firstFull+1)))
			in.gets[i] = getOp{key: pick(), blk: uint32(blk), kind: getAt}
		}
	}

	nProv := opCount(s.provRate, seconds, divisor)
	in.provWrm = int(float64(nProv) * warmShare)
	in.provs = make([]provOp, nProv)
	span := int64(heightBefore(phaseProv)) - provWindow + 1
	if span < 1 {
		span = 1
	}
	for i := range in.provs {
		in.provs[i] = provOp{key: pick(), lo: uint32(1 + rng.Int63n(span))}
	}
	return in
}
