package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"cole/internal/mbtree"
	"cole/internal/run"
	"cole/internal/types"
)

// Version is one provenance result: the value addr held from block Blk.
type Version struct {
	Blk   uint64
	Value types.Value
}

// Proof authenticates a provenance query against Hstate (§6.2,
// Algorithm 8). Its parts appear in the engine's canonical component
// order — L0 groups, then run digests per level, newest first — which is
// exactly the order root_hash_list is hashed in, so a verifier walks the
// parts, reconstructs each component digest, and recomputes Hstate.
type Proof struct {
	Addr         types.Address
	BlkLo, BlkHi uint64
	// Mem holds one part per searched L0 group (1 in sync mode, 2 with
	// asynchronous merge).
	Mem []MemPart
	// Runs holds one part per searched on-disk run, canonical order.
	Runs []RunPart
	// Unsearched carries the raw digests of components skipped after an
	// early stop (Algorithm 8 lines 6–8 and 19–21: once a version older
	// than blk_lo is found, deeper levels hold only older data).
	Unsearched []types.Hash
}

// MemPart authenticates one L0 MB-tree's contribution.
type MemPart struct {
	Proof *mbtree.Proof
}

// RunPart authenticates one searched on-disk run's contribution: a span
// of the run's entries with its Merkle range proof, which proves the
// run's versions in range and, through its flanking entries, that there
// are no others — also when the run holds none. The run's Bloom filter
// is never disclosed (a departure from the paper's footnote 1).
type RunPart struct {
	// Deprecated: nothing sets or reads BloomMiss or MHTRoot, and the
	// verifier ignores them. They go in the next harness change (ROADMAP
	// item 6e), with the second loop of the benchmark's tamper, which
	// still names them.
	BloomMiss bool
	MHTRoot   types.Hash
	// Prov carries the span and its MHT range proof; BloomDigest
	// completes the run digest H(mht_root ‖ bloom_digest).
	BloomDigest types.Hash
	Prov        *run.ProvResult
}

// Verify checks the proof against a state root digest and returns the
// authenticated versions — the method form of VerifyProv, so a proof can
// be checked through a backend-independent interface without naming its
// concrete type.
func (p *Proof) Verify(hstate types.Hash, addr types.Address, blkLo, blkHi uint64) ([]Version, error) {
	return VerifyProv(hstate, addr, blkLo, blkHi, p)
}

// Size approximates the proof's wire size in bytes (for the proof-size
// experiments, Figures 14–15).
func (p *Proof) Size() int {
	s := types.AddressSize + 16
	for _, mp := range p.Mem {
		if mp.Proof != nil {
			s += mp.Proof.Size()
		}
	}
	for _, rp := range p.Runs {
		s += types.HashSize // bloom digest
		if rp.Prov != nil {
			s += len(rp.Prov.Span)*types.EntrySize + 24
			if rp.Prov.Proof != nil {
				s += rp.Prov.Proof.Size()
			}
		}
	}
	s += len(p.Unsearched) * types.HashSize
	return s
}

// ProvQuery returns the versions of addr written in block heights
// [blkLo, blkHi] together with a proof verifiable against the Hstate of
// the last committed block (Algorithm 8). Versions are returned newest
// first. Lock-free: the query runs against the published read view,
// concurrently with commits and merges; use Snapshot to issue several
// queries against one pinned state.
func (e *Engine) ProvQuery(addr types.Address, blkLo, blkHi uint64) ([]Version, *Proof, error) {
	v := e.acquireView()
	defer v.release()
	return e.provInView(v, addr, blkLo, blkHi)
}

// provInView walks one immutable view in canonical component order. The
// resulting proof reconstructs exactly the view's root digest: frozen L0
// snapshots yield the MB-tree parts, and the view's run list (pinned by
// reference counts, so a concurrent merge cannot delete the files) yields
// one searched span per run until an early stop, then the digests of the
// runs left unsearched.
func (e *Engine) provInView(v *view, addr types.Address, blkLo, blkHi uint64) ([]Version, *Proof, error) {
	if blkHi < blkLo {
		return nil, nil, fmt.Errorf("core: inverted block range [%d,%d]", blkLo, blkHi)
	}
	start := time.Now()
	defer func() { e.hists.Prov.Record(time.Since(start)) }()
	e.provQueries.Add(1)

	kl := types.ProvLowerKey(addr, blkLo)
	ku := types.ProvUpperKey(addr, blkHi)
	proof := &Proof{
		Addr: addr, BlkLo: blkLo, BlkHi: blkHi,
		Mem:  make([]MemPart, 0, len(v.mems)),
		Runs: make([]RunPart, 0, len(v.runs)),
	}
	var versions []Version
	stopped := false

	for _, m := range v.mems {
		entries, p, err := m.tree.ProveRange(kl, ku)
		if err != nil {
			return nil, nil, err
		}
		proof.Mem = append(proof.Mem, MemPart{Proof: p})
		for _, ent := range entries {
			if ent.Key.Addr != addr {
				continue
			}
			if ent.Key.Blk >= blkLo && ent.Key.Blk <= blkHi {
				versions = append(versions, Version{Blk: ent.Key.Blk, Value: ent.Value})
			}
			if ent.Key.Blk < blkLo {
				stopped = true
			}
		}
	}

	for _, rr := range v.runs {
		r := rr.r
		if stopped {
			proof.Unsearched = append(proof.Unsearched, r.Digest())
			continue
		}
		res, err := r.ProvSearch(addr, blkLo, blkHi)
		if err != nil {
			return nil, nil, e.noteCorrupt(err)
		}
		proof.Runs = append(proof.Runs, RunPart{BloomDigest: r.BloomDigest(), Prov: res})
		for _, ent := range res.Results {
			versions = append(versions, Version{Blk: ent.Key.Blk, Value: ent.Value})
		}
		if res.StopEarly {
			stopped = true
		}
	}

	slices.SortFunc(versions, newestFirst)
	return versions, proof, nil
}

// newestFirst orders versions by descending block height.
func newestFirst(a, b Version) int { return cmp.Compare(b.Blk, a.Blk) }

// VerifyProv checks a provenance proof against the published state root
// digest Hstate and returns the authenticated versions, newest first.
// It fails if any component digest cannot be reconstructed, if the parts
// do not hash to Hstate, if a claimed range mismatches the query, or if
// components were skipped without early-stop evidence.
func VerifyProv(hstate types.Hash, addr types.Address, blkLo, blkHi uint64, proof *Proof) ([]Version, error) {
	if proof == nil {
		return nil, fmt.Errorf("core: nil proof")
	}
	if proof.Addr != addr || proof.BlkLo != blkLo || proof.BlkHi != blkHi {
		return nil, fmt.Errorf("core: proof answers a different query")
	}
	if blkHi < blkLo {
		return nil, fmt.Errorf("core: inverted block range [%d,%d]", blkLo, blkHi)
	}
	if len(proof.Mem) < 1 || len(proof.Mem) > 2 {
		return nil, fmt.Errorf("core: proof has %d L0 parts", len(proof.Mem))
	}
	kl := types.ProvLowerKey(addr, blkLo)
	ku := types.ProvUpperKey(addr, blkHi)

	var (
		digests  []types.Hash
		versions []Version
		stopSeen bool
	)
	for _, mp := range proof.Mem {
		if mp.Proof == nil {
			return nil, fmt.Errorf("core: missing L0 proof part")
		}
		if mp.Proof.Lo != kl || mp.Proof.Hi != ku {
			return nil, fmt.Errorf("core: L0 proof covers range %v..%v, want %v..%v", mp.Proof.Lo, mp.Proof.Hi, kl, ku)
		}
		root, entries, err := mbtree.ReconstructRange(mp.Proof)
		if err != nil {
			return nil, fmt.Errorf("core: L0 part: %w", err)
		}
		digests = append(digests, root)
		for _, ent := range entries {
			if ent.Key.Addr != addr {
				continue
			}
			if ent.Key.Blk >= blkLo && ent.Key.Blk <= blkHi {
				versions = append(versions, Version{Blk: ent.Key.Blk, Value: ent.Value})
			}
			if ent.Key.Blk < blkLo {
				stopSeen = true
			}
		}
	}
	for i, rp := range proof.Runs {
		if rp.Prov == nil {
			return nil, fmt.Errorf("core: run part %d missing provenance result", i)
		}
		root, entries, err := run.ReconstructProv(addr, blkLo, blkHi, rp.Prov)
		if err != nil {
			return nil, fmt.Errorf("core: run part %d: %w", i, err)
		}
		bd := rp.BloomDigest
		digests = append(digests, types.HashData(root[:], bd[:]))
		for _, ent := range entries {
			versions = append(versions, Version{Blk: ent.Key.Blk, Value: ent.Value})
		}
		// Early-stop evidence: the span shows a version older than blkLo.
		for _, ent := range rp.Prov.Span {
			if ent.Key.Addr == addr && ent.Key.Blk < blkLo {
				stopSeen = true
			}
		}
	}
	if len(proof.Unsearched) > 0 && !stopSeen {
		return nil, fmt.Errorf("core: proof skips %d components without early-stop evidence", len(proof.Unsearched))
	}
	digests = append(digests, proof.Unsearched...)
	if types.HashConcat(digests...) != hstate {
		return nil, fmt.Errorf("core: reconstructed state digest does not match Hstate")
	}
	slices.SortFunc(versions, newestFirst)
	for i := 1; i < len(versions); i++ {
		if versions[i].Blk == versions[i-1].Blk {
			return nil, fmt.Errorf("core: duplicate version at block %d", versions[i].Blk)
		}
	}
	return versions, nil
}
