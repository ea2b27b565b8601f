package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cole/internal/mbtree"
	"cole/internal/run"
	"cole/internal/types"
)

// provCase is one honest provenance answer: the query, the Hstate it
// verifies against, the versions it proves, and the encoded proof each
// fuzz input starts from.
type provCase struct {
	name   string
	root   types.Hash
	addr   types.Address
	lo, hi uint64
	want   []Version
	raw    []byte
}

// provCases builds a small sync store and a small async one and records
// proofs whose shapes cover the verifier's branches: spans with results,
// spans proving an absent address absent, early-stop Unsearched digests,
// and one and two L0 parts.
func provCases(f *testing.F) []provCase {
	f.Helper()
	hot := types.AddressFromUint64(999)
	build := func(async bool) (*Engine, *oracle) {
		e, err := Open(Options{Dir: f.TempDir(), MemCapacity: 32, SizeRatio: 2, Fanout: 4, AsyncMerge: async})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { _ = e.Close() })
		o := newOracle()
		r := rand.New(rand.NewSource(11))
		for b := uint64(1); b <= 150; b++ {
			var batch []types.Update
			put := func(a types.Address, v types.Value) {
				batch = append(batch, types.Update{Addr: a, Value: v})
				o.put(a, b, v)
			}
			put(hot, types.ValueFromUint64(b))
			for p := 0; p < 4; p++ {
				put(types.AddressFromUint64(uint64(r.Intn(30))), types.ValueFromUint64(r.Uint64()))
			}
			if _, err := e.CommitBlock(b, batch); err != nil {
				f.Fatal(err)
			}
		}
		return e, o
	}
	var cases []provCase
	add := func(name string, e *Engine, o *oracle, addr types.Address, lo, hi uint64, shape func(*Proof) bool) {
		root := e.ViewRoot()
		got, proof, err := e.ProvQuery(addr, lo, hi)
		if err != nil {
			f.Fatal(err)
		}
		if want := o.between(addr, lo, hi); !slices.Equal(got, want) {
			f.Fatalf("%s: %d versions, the oracle has %d", name, len(got), len(want))
		}
		if !shape(proof) {
			f.Fatalf("%s: the proof does not have the shape the case is named for", name)
		}
		raw, err := proof.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		cases = append(cases, provCase{name: name, root: root, addr: addr, lo: lo, hi: hi, want: got, raw: raw})
	}
	searched := func(p *Proof) bool {
		return slices.ContainsFunc(p.Runs, func(rp RunPart) bool { return rp.Prov != nil && len(rp.Prov.Results) > 0 })
	}
	absent := func(p *Proof) bool {
		return len(p.Runs) > 0 && !slices.ContainsFunc(p.Runs, func(rp RunPart) bool {
			return rp.Prov == nil || len(rp.Prov.Span) == 0 || len(rp.Prov.Results) > 0
		})
	}

	e, o := build(false)
	if err := e.FlushAll(); err != nil {
		f.Fatal(err)
	}
	add("sync-span", e, o, types.AddressFromUint64(3), 1, 150, func(p *Proof) bool { return len(p.Mem) == 1 && searched(p) })
	add("sync-absent", e, o, types.AddressFromUint64(1<<40), 1, 150, absent)
	add("sync-early-stop", e, o, hot, 120, 130, func(p *Proof) bool { return len(p.Unsearched) > 0 && searched(p) })

	e, o = build(true)
	twoL0 := func(p *Proof) bool { return len(p.Mem) == 2 }
	add("async-span", e, o, types.AddressFromUint64(5), 1, 150, func(p *Proof) bool { return twoL0(p) && searched(p) })
	add("async-early-stop", e, o, hot, 100, 140, func(p *Proof) bool { return twoL0(p) && len(p.Unsearched) > 0 })
	return cases
}

// mutator applies the structured mutations a fuzz input spells out, one
// opcode byte and its argument bytes at a time; an argument past the end
// of the input reads as zero.
type mutator struct {
	in []byte
	p  *Proof
}

func (mu *mutator) byte() int {
	if len(mu.in) == 0 {
		return 0
	}
	b := mu.in[0]
	mu.in = mu.in[1:]
	return int(b)
}

func (mu *mutator) pick(n int) int {
	if n == 0 {
		return -1
	}
	return mu.byte() % n
}

// value returns a replacement for a numeric field: a small step either
// way, or one of the boundary values.
func (mu *mutator) value(v int64) int64 {
	switch op := mu.byte(); op % 6 {
	case 0:
		return v + int64(op/6) + 1
	case 1:
		return v - int64(op/6) - 1
	case 2:
		return 0
	case 3:
		return -1
	case 4:
		return math.MaxInt64
	default:
		return math.MinInt64
	}
}

func (mu *mutator) flip(b []byte) {
	if i := mu.pick(len(b)); i >= 0 {
		b[i] ^= byte(1 + mu.byte()%255)
	}
}

func (mu *mutator) flipEntry(e *types.Entry) {
	var raw [types.EntrySize]byte
	types.EncodeEntry(raw[:], *e)
	mu.flip(raw[:])
	*e, _ = types.DecodeEntry(raw[:])
}

// searchedParts returns the run parts that carry a span and its proof.
func (mu *mutator) searchedParts() []*RunPart {
	var out []*RunPart
	for i := range mu.p.Runs {
		if rp := &mu.p.Runs[i]; rp.Prov != nil && rp.Prov.Proof != nil {
			out = append(out, rp)
		}
	}
	return out
}

// l0Nodes lists every node of every L0 part's pruned tree.
func (mu *mutator) l0Nodes() []*mbtree.ProofNode {
	var out []*mbtree.ProofNode
	var walk func(n *mbtree.ProofNode)
	walk = func(n *mbtree.ProofNode) {
		if n == nil {
			return
		}
		out = append(out, n)
		for _, c := range n.Children {
			walk(c.Node)
		}
	}
	for _, mp := range mu.p.Mem {
		if mp.Proof != nil {
			walk(mp.Proof.Root)
		}
	}
	return out
}

// step applies one mutation; it reports false once the input is spent.
func (mu *mutator) step() bool {
	if len(mu.in) == 0 {
		return false
	}
	p := mu.p
	parts := mu.searchedParts()
	var part *RunPart
	if i := mu.pick(len(parts)); i >= 0 {
		part = parts[i]
	}
	switch mu.byte() % 10 {
	case 0: // a span entry
		if part != nil {
			if i := mu.pick(len(part.Prov.Span)); i >= 0 {
				mu.flipEntry(&part.Prov.Span[i])
			}
		}
	case 1: // a sibling hash
		if part != nil {
			sides := [][][]types.Hash{part.Prov.Proof.Left, part.Prov.Proof.Right}
			side := sides[mu.byte()%2]
			if l := mu.pick(len(side)); l >= 0 {
				if i := mu.pick(len(side[l])); i >= 0 {
					mu.flip(side[l][i][:])
				}
			}
		}
	case 2: // a run's Bloom digest, or an Unsearched digest
		switch {
		case mu.byte()%2 == 0 && len(p.Unsearched) > 0:
			mu.flip(p.Unsearched[mu.pick(len(p.Unsearched))][:])
		case len(p.Runs) > 0:
			mu.flip(p.Runs[mu.pick(len(p.Runs))].BloomDigest[:])
		}
	case 3: // an L0 node: a pruned digest, a leaf entry or a separator
		nodes := mu.l0Nodes()
		if i := mu.pick(len(nodes)); i >= 0 {
			n := nodes[i]
			switch {
			case n.Pruned != nil:
				mu.flip(n.Pruned[:])
			case len(n.Leaf) > 0:
				mu.flipEntry(&n.Leaf[mu.pick(len(n.Leaf))])
			case len(n.Children) > 0:
				c := &n.Children[mu.pick(len(n.Children))]
				var raw [types.CompoundKeySize]byte
				c.MinKey.PutBytes(raw[:])
				mu.flip(raw[:])
				c.MinKey, _ = types.DecodeCompoundKey(raw[:])
			}
		}
	case 4: // a number: the query's heights, or a part's geometry
		switch field := mu.byte() % 8; {
		case field == 0:
			p.BlkLo = uint64(mu.value(int64(p.BlkLo)))
		case field == 1:
			p.BlkHi = uint64(mu.value(int64(p.BlkHi)))
		case part == nil:
		case field == 2:
			part.Prov.Proof.N = mu.value(part.Prov.Proof.N)
		case field == 3:
			part.Prov.Proof.M = int(mu.value(int64(part.Prov.Proof.M)))
		case field == 4:
			part.Prov.Proof.Lo = mu.value(part.Prov.Proof.Lo)
		case field == 5:
			part.Prov.Proof.Hi = mu.value(part.Prov.Proof.Hi)
		case field == 6:
			part.Prov.SpanLo = mu.value(part.Prov.SpanLo)
		default:
			part.Prov.SpanHi = mu.value(part.Prov.SpanHi)
		}
	case 5: // drop a part
		switch mu.byte() % 3 {
		case 0:
			if i := mu.pick(len(p.Mem)); i >= 0 {
				p.Mem = slices.Delete(p.Mem, i, i+1)
			}
		case 1:
			if i := mu.pick(len(p.Runs)); i >= 0 {
				p.Runs = slices.Delete(p.Runs, i, i+1)
			}
		default:
			if i := mu.pick(len(p.Unsearched)); i >= 0 {
				p.Unsearched = slices.Delete(p.Unsearched, i, i+1)
			}
		}
	case 6: // duplicate a part
		switch mu.byte() % 3 {
		case 0:
			if i := mu.pick(len(p.Mem)); i >= 0 {
				p.Mem = slices.Insert(p.Mem, i, p.Mem[i])
			}
		case 1:
			if i := mu.pick(len(p.Runs)); i >= 0 {
				p.Runs = slices.Insert(p.Runs, i, p.Runs[i])
			}
		default:
			if i := mu.pick(len(p.Unsearched)); i >= 0 {
				p.Unsearched = slices.Insert(p.Unsearched, i, p.Unsearched[i])
			}
		}
	case 7: // swap two parts
		switch mu.byte() % 3 {
		case 0:
			if i, j := mu.pick(len(p.Mem)), mu.pick(len(p.Mem)); i >= 0 {
				p.Mem[i], p.Mem[j] = p.Mem[j], p.Mem[i]
			}
		case 1:
			if i, j := mu.pick(len(p.Runs)), mu.pick(len(p.Runs)); i >= 0 {
				p.Runs[i], p.Runs[j] = p.Runs[j], p.Runs[i]
			}
		default:
			if i, j := mu.pick(len(p.Unsearched)), mu.pick(len(p.Unsearched)); i >= 0 {
				p.Unsearched[i], p.Unsearched[j] = p.Unsearched[j], p.Unsearched[i]
			}
		}
	case 9: // drop a span's end entry and fold its leaf into the siblings
		if part != nil {
			mu.shrink(part.Prov)
		}
	default: // drop, duplicate or swap a sibling layer
		if part == nil {
			break
		}
		rp := part.Prov.Proof
		side := &rp.Left
		if mu.byte()%2 == 1 {
			side = &rp.Right
		}
		i, j := mu.pick(len(*side)), mu.pick(len(*side))
		if i < 0 {
			break
		}
		switch mu.byte() % 3 {
		case 0:
			*side = slices.Delete(*side, i, i+1)
		case 1:
			*side = slices.Insert(*side, i, (*side)[i])
		default:
			(*side)[i], (*side)[j] = (*side)[j], (*side)[i]
		}
	}
	return true
}

// shrink is a completeness attack: it drops the first or the last entry
// of a span and re-derives the range proof the way a prover would, by
// moving the entry's leaf hash into the layer-0 siblings (when that keeps
// the span's boundary groups). The Merkle proof stays valid; only the
// verifier's completeness checks stand between it and a hidden version.
func (mu *mutator) shrink(res *run.ProvResult) {
	rp := res.Proof
	m := int64(rp.M)
	if len(res.Span) < 2 || m < 2 || len(rp.Left) == 0 || len(rp.Right) == 0 {
		return
	}
	var dropped types.Entry
	if mu.byte()%2 == 0 {
		if (rp.Lo+1)%m == 0 {
			return
		}
		dropped = res.Span[0]
		rp.Left[0] = append(rp.Left[0], types.HashEntry(dropped))
		res.Span = res.Span[1:]
		res.SpanLo++
		rp.Lo++
	} else {
		if rp.Hi%m == 0 {
			return
		}
		dropped = res.Span[len(res.Span)-1]
		rp.Right[0] = append([]types.Hash{types.HashEntry(dropped)}, rp.Right[0]...)
		res.Span = res.Span[:len(res.Span)-1]
		res.SpanHi--
		rp.Hi--
	}
	res.Results = slices.DeleteFunc(res.Results, func(e types.Entry) bool { return e == dropped })
}

// FuzzVerifyProv mutates honest provenance proofs — span entries, sibling
// hashes, Bloom and Unsearched digests, L0 nodes, heights and span geometry,
// the order and multiplicity of parts and sibling layers, and spans cut
// short under a still-valid Merkle proof — and holds
// the verifier to fail closed: it never panics, and whenever it accepts,
// it returns exactly the honest versions.
func FuzzVerifyProv(f *testing.F) {
	cases := provCases(f)
	for c := range cases {
		f.Add([]byte{byte(c)}) // the honest proof itself
		for op := byte(0); op < 10; op++ {
			f.Add([]byte{byte(c), 0, op, 1, 2, 3, 4, 5})
		}
		// The op 9 seed above cuts a span's right end; cut its left end
		// too, since an absent address's span is its two flanks alone.
		f.Add([]byte{byte(c), 0, 9, 0})
	}
	var seed [8]byte
	binary.BigEndian.PutUint64(seed[:], 0x0102030405060708)
	f.Add(append([]byte{0}, seed[:]...))

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		c := cases[int(in[0])%len(cases)]
		p, err := UnmarshalProof(c.raw)
		if err != nil {
			t.Fatal(err)
		}
		mu := &mutator{in: in[1:], p: p}
		for mu.step() {
		}
		got, err := p.Verify(c.root, c.addr, c.lo, c.hi)
		if err != nil {
			return
		}
		if !slices.Equal(got, c.want) {
			t.Fatalf("%s: a mutated proof verified to %v, the honest versions are %v", c.name, got, c.want)
		}
	})
}
