package mbtree

import (
	"fmt"

	"cole/internal/types"
)

// Proof authenticates a range query [Lo, Hi] against the tree's root hash.
// It is the pruned tree: opened internal nodes expose their children's
// separator keys, opened leaves expose their full entry lists, and every
// subtree that cannot intersect the range is replaced by its digest.
type Proof struct {
	Lo, Hi types.CompoundKey
	Root   *ProofNode
}

// ProofNode is one node of the pruned tree. Exactly one of the three
// shapes is populated: a pruned digest, an opened leaf, or an opened
// internal node.
type ProofNode struct {
	Pruned   *types.Hash
	Leaf     []types.Entry
	Children []ProofChild
}

// ProofChild pairs a child subtree with its separator (minimum) key, which
// is part of the parent's digest and lets verifiers bound pruned subtrees.
type ProofChild struct {
	MinKey types.CompoundKey
	Node   *ProofNode
}

// Size returns the approximate wire size of the proof in bytes.
func (p *Proof) Size() int {
	return 2*types.CompoundKeySize + nodeSize(p.Root)
}

func nodeSize(n *ProofNode) int {
	if n == nil {
		return 0
	}
	switch {
	case n.Pruned != nil:
		return types.HashSize
	case n.Children != nil:
		s := 2 // child count
		for _, c := range n.Children {
			s += types.CompoundKeySize + nodeSize(c.Node)
		}
		return s
	default:
		return 2 + len(n.Leaf)*types.EntrySize
	}
}

// ProveRange builds a completeness-preserving proof for keys in [lo, hi]
// and returns the in-range entries. Every leaf whose key interval could
// intersect the range is opened in full.
func (t *Tree) ProveRange(lo, hi types.CompoundKey) ([]types.Entry, *Proof, error) {
	if hi.Less(lo) {
		return nil, nil, fmt.Errorf("mbtree: inverted range %v..%v", lo, hi)
	}
	p := &Proof{Lo: lo, Hi: hi}
	if t.root == nil {
		return nil, p, nil
	}
	var results []types.Entry
	buf := t.newHashBuf() // touched only if a pruned subtree is still dirty
	p.Root = proveNode(t.root, lo, hi, &results, &buf)
	return results, p, nil
}

func proveNode(n node, lo, hi types.CompoundKey, results *[]types.Entry, buf *hashBuf) *ProofNode {
	switch nd := n.(type) {
	case *leafNode:
		for _, e := range nd.entries {
			if e.Key.Cmp(lo) >= 0 && e.Key.Cmp(hi) <= 0 {
				*results = append(*results, e)
			}
		}
		return &ProofNode{Leaf: append([]types.Entry(nil), nd.entries...)}
	case *internalNode:
		out := &ProofNode{Children: make([]ProofChild, len(nd.children))}
		for i, c := range nd.children {
			childLo := nd.mins[i]
			open := true
			// Child interval is [mins[i], mins[i+1]); prune when it cannot
			// intersect [lo, hi].
			if childLo.Cmp(hi) > 0 {
				open = false
			}
			if i+1 < len(nd.mins) && nd.mins[i+1].Cmp(lo) <= 0 {
				open = false
			}
			if open {
				out.Children[i] = ProofChild{MinKey: childLo, Node: proveNode(c, lo, hi, results, buf)}
			} else {
				h := digest(c, buf)
				out.Children[i] = ProofChild{MinKey: childLo, Node: &ProofNode{Pruned: &h}}
			}
		}
		return out
	}
	panic("mbtree: unknown node type")
}

// ReconstructRange walks a proof, reconstructs the root digest from the
// pruned tree, confirms no pruned subtree could hold in-range keys, and
// returns the authenticated in-range entries. The caller compares the root
// against an authenticated value (e.g. the digest folded into Hstate).
// An empty-tree proof reconstructs types.ZeroHash.
func ReconstructRange(p *Proof) (types.Hash, []types.Entry, error) {
	if p == nil {
		return types.Hash{}, nil, fmt.Errorf("mbtree: nil proof")
	}
	if p.Root == nil {
		return types.ZeroHash, nil, nil
	}
	var (
		results []types.Entry
		lastKey *types.CompoundKey
	)
	upper := types.CompoundKey{Addr: types.Address{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, Blk: types.MaxBlock}
	h, err := verifyNode(p.Root, 1, p.Lo, p.Hi, types.CompoundKey{}, upper, &results, &lastKey)
	if err != nil {
		return types.Hash{}, nil, err
	}
	return h, results, nil
}

// VerifyRange checks a proof against a known root hash and returns the
// authenticated in-range entries.
func VerifyRange(rootHash types.Hash, p *Proof) ([]types.Entry, error) {
	h, results, err := ReconstructRange(p)
	if err != nil {
		return nil, err
	}
	if h != rootHash {
		return nil, fmt.Errorf("mbtree: reconstructed root %v does not match %v", h, rootHash)
	}
	return results, nil
}

// maxProofDepth bounds the levels of a proof ReconstructRange walks. A
// B+-tree of fanout ≥ 3 splits full nodes in half, so a tree of n entries
// is at most log2(n) + 1 levels deep: 64 levels is more than any tree
// holds. A deeper proof is a forgery, and refusing it before descending
// keeps an untrusted chain of single-child nodes from exhausting the
// verifier's stack — a fatal error no recover can catch.
const maxProofDepth = 64

// verifyNode recomputes the digest of the node at the given depth (the
// root is 1). ivLo/ivHi bound the keys this subtree may contain (from
// ancestors' separator keys); pruned subtrees are rejected if those
// bounds intersect the query range.
func verifyNode(n *ProofNode, depth int, lo, hi, ivLo, ivHi types.CompoundKey, results *[]types.Entry, lastKey **types.CompoundKey) (types.Hash, error) {
	if depth > maxProofDepth {
		return types.Hash{}, fmt.Errorf("mbtree: proof deeper than %d levels", maxProofDepth)
	}
	switch {
	case n.Pruned != nil:
		// The subtree's keys lie in [ivLo, ivHi) (ivHi is the next
		// sibling's separator, exclusive; the global sentinel at the root
		// is above every storable key). It must not intersect [lo, hi] or
		// results could be missing. This mirrors the prover's pruning rule
		// exactly: pruned iff ivLo > hi or ivHi ≤ lo.
		if ivLo.Cmp(hi) <= 0 && ivHi.Cmp(lo) > 0 {
			return types.Hash{}, fmt.Errorf("mbtree: pruned subtree [%v,%v) may intersect query range", ivLo, ivHi)
		}
		return *n.Pruned, nil
	case n.Children != nil:
		if len(n.Children) == 0 {
			return types.Hash{}, fmt.Errorf("mbtree: internal proof node with no children")
		}
		mins := make([]types.CompoundKey, len(n.Children))
		hashes := make([]types.Hash, len(n.Children))
		for i, c := range n.Children {
			if c.Node == nil {
				return types.Hash{}, fmt.Errorf("mbtree: missing child node in proof")
			}
			mins[i] = c.MinKey
			if i > 0 && c.MinKey.Cmp(n.Children[i-1].MinKey) <= 0 {
				return types.Hash{}, fmt.Errorf("mbtree: separator keys out of order")
			}
			childLo := c.MinKey
			childHi := ivHi
			if i+1 < len(n.Children) {
				childHi = n.Children[i+1].MinKey
			}
			if childLo.Cmp(ivLo) < 0 || childHi.Cmp(ivHi) > 0 {
				return types.Hash{}, fmt.Errorf("mbtree: child interval escapes parent bounds")
			}
			h, err := verifyNode(c.Node, depth+1, lo, hi, childLo, childHi, results, lastKey)
			if err != nil {
				return types.Hash{}, err
			}
			hashes[i] = h
		}
		return InternalHash(mins, hashes), nil
	default:
		for _, e := range n.Leaf {
			if *lastKey != nil && e.Key.Cmp(**lastKey) <= 0 {
				return types.Hash{}, fmt.Errorf("mbtree: revealed entries out of order at %v", e.Key)
			}
			k := e.Key
			*lastKey = &k
			if e.Key.Cmp(ivLo) < 0 || e.Key.Cmp(ivHi) > 0 {
				return types.Hash{}, fmt.Errorf("mbtree: leaf entry %v outside interval", e.Key)
			}
			if e.Key.Cmp(lo) >= 0 && e.Key.Cmp(hi) <= 0 {
				*results = append(*results, e)
			}
		}
		return LeafHash(n.Leaf), nil
	}
}
