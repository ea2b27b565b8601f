package run

import (
	"fmt"

	"cole/internal/bloom"
	"cole/internal/mht"
	"cole/internal/pagefile"
	"cole/internal/pla"
	"cole/internal/types"
)

// SearchAt finds the version of addr active at block height blk (the
// newest with Key.Blk ≤ blk; types.MaxBlock asks for the latest) by
// descending the learned index. It does not consult the Bloom filter: the
// engine's read path probes MayContain itself, to count filter skips and
// to hash the address once for the whole run list.
func (r *Run) SearchAt(addr types.Address, blk uint64) (types.Entry, int64, bool, error) {
	e, pos, ok, err := r.predecessor(types.CompoundKey{Addr: addr, Blk: blk})
	if err != nil || !ok || e.Key.Addr != addr {
		return types.Entry{}, 0, false, err
	}
	return e, pos, true, nil
}

// predecessor locates the entry with the largest key ≤ kq (Algorithm 7):
// binary search on the top model layer, then per layer one prediction and
// a search of the ±ε window around it — all over the resident index —
// and at the bottom at most two value pages.
func (r *Run) predecessor(kq types.CompoundKey) (types.Entry, int64, bool, error) {
	if kq.Cmp(r.minKey) < 0 {
		return types.Entry{}, 0, false, nil
	}
	// Every layer's first anchor is minKey ≤ kq (loadIndex), so the top
	// layer always has a predecessor.
	li := len(r.models) - 1
	layer := r.models[li]
	i := searchModels(layer, 0, len(layer)-1, kq)
	// A key between two trained keys can be predicted one slot past ε.
	window := int64(pagefile.Epsilon(r.params.PageSize, pla.ModelSize)) + 1
	perPage := int64(pagefile.PerPage(r.params.PageSize, pla.ModelSize))
	for ; li >= 1; li-- {
		below := r.models[li-1]
		// Upper models predict global record slots of the index file; the
		// layer below starts on a page boundary.
		at := clamp(layer[i].Predict(kq)-r.layers[li-1].StartPage*perPage, 0, int64(len(below)-1))
		lo, hi := int(max(at-window, 0)), int(min(at+window, int64(len(below)-1)))
		i = searchModels(below, lo, hi, kq)
		if i < 0 || (i == hi && hi+1 < len(below) && below[hi+1].KMin.Cmp(kq) <= 0) {
			return types.Entry{}, 0, false, r.epsilonViolation(li, kq)
		}
		layer = below
	}

	e, pos, ok, err := r.findEntry(layer[i].Predict(kq), kq)
	if err == nil && ok && r.params.VerifyReads {
		err = r.verifyEntry(e, pos)
	}
	if err != nil {
		return types.Entry{}, 0, false, err
	}
	return e, pos, ok, nil
}

// searchModels returns the index of the rightmost model of layer[lo..hi]
// with KMin ≤ kq, or −1.
func searchModels(layer []pla.Model, lo, hi int, kq types.CompoundKey) int {
	found := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if layer[mid].KMin.Cmp(kq) <= 0 {
			found = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return found
}

// epsilonViolation is the error of a search that did not find kq's
// predecessor where a model of the given index layer promised it: the
// model's slope or intercept is damaged, and since no digest covers the
// .idx file the search itself is the only check. Serving "not found"
// instead would silently answer from an older run.
func (r *Run) epsilonViolation(layer int, kq types.CompoundKey) error {
	return types.NewCorrupt(indexPath(r.dir, r.ID), -1,
		fmt.Sprintf("run %d: a layer-%d model predicts %v outside its error bound", r.ID, layer, kq))
}

// verifyEntry checks an entry read from the value file against its
// stored Merkle leaf hash, catching silent value-page damage before it
// is served (Params.VerifyReads).
func (r *Run) verifyEntry(e types.Entry, pos int64) error {
	leaf, err := r.merkle.NodeHash(0, pos)
	if err != nil {
		return types.CorruptFrom(merklePath(r.dir, r.ID), err)
	}
	if types.HashEntry(e) != leaf {
		return types.NewCorrupt(valuePath(r.dir, r.ID),
			pos/int64(r.values.PerPage()),
			fmt.Sprintf("entry %d does not match its Merkle leaf", pos))
	}
	return nil
}

// findEntry locates the predecessor entry of kq (≥ the run's minimum key)
// near the predicted value-file position. ε is half a page, so the entry
// is on the predicted page or a neighbour: one page is pinned at a time,
// two are touched at most — three when the hit is the last record of a
// page reached by stepping right, where the step itself has to be
// checked against the page after.
func (r *Run) findEntry(pred int64, kq types.CompoundKey) (types.Entry, int64, bool, error) {
	perPage := int64(r.values.PerPage())
	last := r.values.NumPages() - 1
	page := clamp(pred/perPage, 0, last)

	e, idx, n, err := r.searchPage(page, kq)
	if err != nil {
		return types.Entry{}, 0, false, err
	}
	switch {
	case idx < 0 && page == 0:
		return types.Entry{}, 0, false, types.NewCorrupt(valuePath(r.dir, r.ID), 0,
			fmt.Sprintf("run %d: first key is above the run's minimum key", r.ID))
	case idx < 0:
		// kq precedes the page: its predecessor ends the page before, or
		// the model broke its bound.
		page--
		if e, idx, _, err = r.searchPage(page, kq); err != nil {
			return types.Entry{}, 0, false, err
		}
		if idx < 0 {
			return types.Entry{}, 0, false, r.epsilonViolation(0, kq)
		}
	case idx == n-1 && page < last:
		// kq is at or past the page's last key: the predecessor may start
		// the next page.
		ne, nidx, nn, err := r.searchPage(page+1, kq)
		if err != nil {
			return types.Entry{}, 0, false, err
		}
		if nidx >= 0 {
			page++
			e, idx = ne, nidx
			if idx == nn-1 && page < last {
				if _, after, _, err := r.searchPage(page+1, kq); err != nil {
					return types.Entry{}, 0, false, err
				} else if after >= 0 {
					return types.Entry{}, 0, false, r.epsilonViolation(0, kq)
				}
			}
		}
	}
	return e, page*perPage + int64(idx), true, nil
}

// searchPage pins one value page, finds the rightmost entry with key ≤ kq
// on it and decodes that entry before the pin is dropped. idx is −1 when
// every key on the page is above kq; n is the page's entry count.
func (r *Run) searchPage(page int64, kq types.CompoundKey) (e types.Entry, idx, n int, err error) {
	pg, err := r.values.Pin(page)
	if err != nil {
		return types.Entry{}, 0, 0, err
	}
	defer pg.Release()
	if idx = predecessorInPage(pg.Records, pg.N, kq); idx >= 0 {
		if e, err = types.DecodeEntry(pg.Records[idx*types.EntrySize:]); err != nil {
			return types.Entry{}, 0, 0, types.CorruptFrom(valuePath(r.dir, r.ID), err)
		}
	}
	return e, idx, pg.N, nil
}

// predecessorInPage returns the index of the rightmost entry with
// key ≤ kq, or -1.
func predecessorInPage(data []byte, n int, kq types.CompoundKey) int {
	var kb [types.CompoundKeySize]byte
	kq.PutBytes(kb[:])
	lo, hi, found := 0, n-1, -1
	for lo <= hi {
		mid := (lo + hi) / 2
		off := mid * types.EntrySize
		if cmpBytes(data[off:off+types.CompoundKeySize], kb[:]) <= 0 {
			found = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return found
}

func cmpBytes(a, b []byte) int {
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

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ProvResult is the per-run outcome of a provenance search (§6.2,
// Algorithm 8): the matched versions, the authenticated contiguous span
// that proves completeness, and the early-stop signal.
type ProvResult struct {
	// Results are the versions of the queried address with
	// blkLo ≤ blk ≤ blkHi found in this run.
	Results []types.Entry
	// Span is the contiguous proven slice of the value file, including the
	// boundary entries flanking the matches; SpanLo/SpanHi are its
	// value-file positions.
	Span           []types.Entry
	SpanLo, SpanHi int64
	// Proof authenticates Span against the run's MHT root.
	Proof *mht.RangeProof
	// BloomMiss is set when the Bloom filter excludes the address: the
	// serialized filter (BloomBytes) stands in for the span as the
	// non-membership proof.
	BloomMiss bool
	// StopEarly is set when the run holds a version of the address older
	// than blkLo: deeper levels hold only older data and need not be
	// searched (Algorithm 8 lines 19–21).
	StopEarly bool
}

// ProvSearch finds the versions of addr within block heights
// [blkLo, blkHi] and builds the Merkle evidence for them.
func (r *Run) ProvSearch(addr types.Address, blkLo, blkHi uint64) (*ProvResult, error) {
	return r.ProvSearchProbe(bloom.NewProbe(addr), addr, blkLo, blkHi)
}

// ProvSearchProbe is ProvSearch for a caller that walks a run list and
// hashed addr once (p must be bloom.NewProbe(addr)).
func (r *Run) ProvSearchProbe(p bloom.Probe, addr types.Address, blkLo, blkHi uint64) (*ProvResult, error) {
	if blkHi < blkLo {
		return nil, fmt.Errorf("run: inverted block range [%d,%d]", blkLo, blkHi)
	}
	if !r.filter.MayContainProbe(p) {
		return &ProvResult{BloomMiss: true}, nil
	}
	// Anchor at K_l = ⟨addr, blk_l − 1⟩ (the paper's boundary key): the
	// span then starts at the newest version *older* than blk_l when one
	// exists, which both proves left completeness and carries the
	// early-stop evidence.
	kl := types.ProvLowerKey(addr, blkLo)
	ku := types.CompoundKey{Addr: addr, Blk: blkHi}

	var spanLo int64
	if _, pos, ok, err := r.predecessor(kl); err != nil {
		return nil, err
	} else if ok {
		spanLo = pos
	}

	res := &ProvResult{SpanLo: spanLo}
	pos := spanLo
	perPage := int64(r.values.PerPage())
	for done := false; !done && pos < r.count; {
		pg, err := r.values.Pin(pos / perPage)
		if err != nil {
			return nil, err
		}
		for i := int(pos % perPage); i < pg.N; i++ {
			e, err := types.DecodeEntry(pg.Records[i*types.EntrySize:])
			if err != nil {
				pg.Release()
				return nil, types.CorruptFrom(valuePath(r.dir, r.ID), err)
			}
			res.Span = append(res.Span, e)
			if e.Key.Addr == addr {
				if e.Key.Blk >= blkLo && e.Key.Blk <= blkHi {
					res.Results = append(res.Results, e)
				}
				if e.Key.Blk < blkLo {
					res.StopEarly = true
				}
			}
			if ku.Less(e.Key) {
				// First entry beyond K_u: right completeness boundary.
				done = true
				break
			}
			pos++
		}
		pg.Release()
	}
	if pos >= r.count {
		pos = r.count - 1
	}
	res.SpanHi = pos
	proof, err := r.ProveRange(res.SpanLo, res.SpanHi)
	if err != nil {
		return nil, err
	}
	res.Proof = proof
	return res, nil
}

// ReconstructProv validates a per-run provenance result and reconstructs
// the MHT root it authenticates against. It checks the span/proof
// consistency and the completeness boundaries, and returns the
// reconstructed root plus the verified in-range entries. The caller folds
// the root into the run digest and matches it against root_hash_list.
//
// For a BloomMiss the caller instead verifies the disclosed filter bytes
// against the digest and checks MayContain(addr) is false; see
// core.VerifyProv.
func ReconstructProv(addr types.Address, blkLo, blkHi uint64, res *ProvResult) (types.Hash, []types.Entry, error) {
	if res.Proof == nil || len(res.Span) == 0 {
		return types.Hash{}, nil, fmt.Errorf("run: provenance result missing span")
	}
	if res.SpanHi-res.SpanLo+1 != int64(len(res.Span)) {
		return types.Hash{}, nil, fmt.Errorf("run: span positions [%d,%d] do not match %d entries", res.SpanLo, res.SpanHi, len(res.Span))
	}
	if res.Proof.Lo != res.SpanLo || res.Proof.Hi != res.SpanHi {
		return types.Hash{}, nil, fmt.Errorf("run: proof range [%d,%d] does not match span [%d,%d]", res.Proof.Lo, res.Proof.Hi, res.SpanLo, res.SpanHi)
	}
	leaves := make([]types.Hash, len(res.Span))
	for i, e := range res.Span {
		leaves[i] = types.HashEntry(e)
	}
	root, err := mht.VerifyRange(res.Proof, leaves)
	if err != nil {
		return types.Hash{}, nil, err
	}
	// Keys must be strictly increasing (positions are sorted).
	for i := 1; i < len(res.Span); i++ {
		if res.Span[i].Key.Cmp(res.Span[i-1].Key) <= 0 {
			return types.Hash{}, nil, fmt.Errorf("run: span entries out of order")
		}
	}
	kl := types.CompoundKey{Addr: addr, Blk: blkLo}
	ku := types.CompoundKey{Addr: addr, Blk: blkHi}
	// Left completeness: nothing in range can precede the span.
	if res.SpanLo != 0 && kl.Less(res.Span[0].Key) {
		return types.Hash{}, nil, fmt.Errorf("run: span may omit results on the left")
	}
	// Right completeness: nothing in range can follow the span.
	if res.SpanHi != res.Proof.N-1 && !ku.Less(res.Span[len(res.Span)-1].Key) {
		return types.Hash{}, nil, fmt.Errorf("run: span may omit results on the right")
	}
	var out []types.Entry
	for _, e := range res.Span {
		if e.Key.Addr == addr && e.Key.Blk >= blkLo && e.Key.Blk <= blkHi {
			out = append(out, e)
		}
	}
	if len(out) != len(res.Results) {
		return types.Hash{}, nil, fmt.Errorf("run: claimed %d results, span holds %d", len(res.Results), len(out))
	}
	for i := range out {
		if out[i] != res.Results[i] {
			return types.Hash{}, nil, fmt.Errorf("run: result %d does not match span", i)
		}
	}
	return root, out, nil
}

// VerifyProv checks a per-run provenance result against a known MHT root
// and returns the verified in-range entries.
func VerifyProv(mhtRoot types.Hash, addr types.Address, blkLo, blkHi uint64, res *ProvResult) ([]types.Entry, error) {
	root, out, err := ReconstructProv(addr, blkLo, blkHi, res)
	if err != nil {
		return nil, err
	}
	if root != mhtRoot {
		return nil, fmt.Errorf("run: reconstructed MHT root mismatch")
	}
	return out, nil
}
