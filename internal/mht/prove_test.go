package mht

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cole/internal/types"
	"cole/internal/vfs"
)

// proveRangeByNode is the per-node prover File.ProveRange replaced: one
// node read per sibling, no resident layers. It is the reference the
// resident prover must match exactly; node reads (layer, idx) — a File's
// NodeHash, or an in-memory image of the file for speed.
func proveRangeByNode(n int64, m int, node func(layer int, idx int64) (types.Hash, error), lo, hi int64) (*RangeProof, error) {
	if lo < 0 || hi < lo || hi >= n {
		return nil, fmt.Errorf("mht: bad range [%d,%d] of %d leaves", lo, hi, n)
	}
	counts := LayerCounts(n, m)
	p := &RangeProof{N: n, M: m, Lo: lo, Hi: hi}
	l, h := lo, hi
	for layer := 0; layer < len(counts)-1; layer++ {
		groupStart := (l / int64(m)) * int64(m)
		groupEnd := (h/int64(m))*int64(m) + int64(m) - 1
		if groupEnd >= counts[layer] {
			groupEnd = counts[layer] - 1
		}
		var left, right []types.Hash // nil when a side has no siblings
		if l > groupStart {
			left = make([]types.Hash, 0, l-groupStart)
		}
		if groupEnd > h {
			right = make([]types.Hash, 0, groupEnd-h)
		}
		for i := groupStart; i < l; i++ {
			hh, err := node(layer, i)
			if err != nil {
				return nil, err
			}
			left = append(left, hh)
		}
		for i := h + 1; i <= groupEnd; i++ {
			hh, err := node(layer, i)
			if err != nil {
				return nil, err
			}
			right = append(right, hh)
		}
		p.Left = append(p.Left, left)
		p.Right = append(p.Right, right)
		l /= int64(m)
		h /= int64(m)
	}
	return p, nil
}

// sameProof is reflect.DeepEqual for range proofs — nil and empty sides
// differ — without reflection's cost, so the sweeps can check millions.
func sameProof(a, b *RangeProof) bool {
	if a.N != b.N || a.M != b.M || a.Lo != b.Lo || a.Hi != b.Hi ||
		(a.Left == nil) != (b.Left == nil) || (a.Right == nil) != (b.Right == nil) {
		return false
	}
	same := func(x, y [][]types.Hash) bool {
		return slices.EqualFunc(x, y, func(p, q []types.Hash) bool {
			return (p == nil) == (q == nil) && slices.Equal(p, q)
		})
	}
	return same(a.Left, b.Left) && same(a.Right, b.Right)
}

// imageNodes serves node reads from a copy of a Merkle file's bytes.
func imageNodes(t testing.TB, fs *vfs.MemFS, n int64, m int) func(int, int64) (types.Hash, error) {
	t.Helper()
	raw, err := fs.ReadFile("tree.mrk")
	if err != nil {
		t.Fatal(err)
	}
	offs := LayerOffsets(LayerCounts(n, m))
	return func(layer int, idx int64) (types.Hash, error) {
		return types.Hash(raw[(offs[layer]+idx)*types.HashSize:]), nil
	}
}

// memTree writes an n-leaf, fanout-m Merkle file to a fresh in-memory
// filesystem and opens it against its committed root.
func memTree(t testing.TB, n int64, m int) (*vfs.MemFS, *File, []types.Hash, types.Hash) {
	t.Helper()
	fs := vfs.NewMem()
	leaves := leafHashes(n)
	root, err := writeTree(fs, "tree.mrk", leaves, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenFS(fs, "tree.mrk", n, m, root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return fs, f, leaves, root
}

// TestProveRangeMatchesPerNodeProver: the resident prover's proofs are
// the per-node prover's, field for field (nil sides included), for every
// span narrower than 3m and 200 random wide ones, across tree shapes
// whose layer counts straddle the resident boundary. With -short, the
// 70 001-leaf trees sweep narrow spans from every lo near either end and
// every seventh lo between.
func TestProveRangeMatchesPerNodeProver(t *testing.T) {
	for _, m := range []int{2, 3, 4, 16} {
		mm := int64(m)
		for _, n := range []int64{1, 2, mm - 1, mm, mm + 1, mm * mm, mm*mm + 1, 4096, 70001} {
			if n < 1 {
				continue
			}
			t.Run(fmt.Sprintf("n=%d_m=%d", n, m), func(t *testing.T) {
				t.Parallel()
				fs, f, leaves, root := memTree(t, n, m)
				node := imageNodes(t, fs, n, m)
				check := func(lo, hi int64, verify bool) {
					want, err := proveRangeByNode(n, m, node, lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					got, err := f.ProveRange(lo, hi)
					if err != nil {
						t.Fatalf("[%d,%d]: %v", lo, hi, err)
					}
					if !sameProof(got, want) {
						t.Fatalf("[%d,%d]: proof differs from the per-node prover", lo, hi)
					}
					if !verify {
						return
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("[%d,%d]: sameProof disagrees with reflect.DeepEqual", lo, hi)
					}
					if v, err := VerifyRange(got, leaves[lo:hi+1]); err != nil || v != root {
						t.Fatalf("[%d,%d]: proof does not verify: %v", lo, hi, err)
					}
				}
				for lo := int64(0); lo < n; lo++ {
					if testing.Short() && n > 4096 && lo > 1024 && lo < n-1024 && lo%7 != 0 {
						continue
					}
					for hi := lo; hi < n && hi-lo < 3*mm; hi++ {
						check(lo, hi, lo%97 == 0)
					}
				}
				rng := rand.New(rand.NewSource(n*31 + mm))
				for i := 0; i < 200; i++ {
					lo := rng.Int63n(n)
					check(lo, lo+rng.Int63n(n-lo), true)
				}
			})
		}
	}
}

// TestProveRangeConcurrentFirstLoad: eight provers on a freshly opened
// File race its first load; all get the reference proofs. A File whose
// first load fails returns the error to that caller, keeps nothing, and
// loads on the next call.
func TestProveRangeConcurrentFirstLoad(t *testing.T) {
	const n, m = 5000, 4
	prove := func(f *File) []error {
		errs := make([]error, 8)
		var wg sync.WaitGroup
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := int64(0); i < 50; i++ {
					lo := (int64(g)*977 + i*131) % (n - 8)
					got, err := f.ProveRange(lo, lo+int64(g))
					if err != nil {
						errs[g] = err
						return
					}
					want, err := proveRangeByNode(n, m, f.NodeHash, lo, lo+int64(g))
					if err != nil || !reflect.DeepEqual(got, want) {
						errs[g] = fmt.Errorf("[%d,%d]: proof differs from the per-node prover (%v)", lo, lo+int64(g), err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		return errs
	}

	_, f, _, _ := memTree(t, n, m)
	for _, err := range prove(f) {
		if err != nil {
			t.Fatal(err)
		}
	}

	fs, f, _, _ := memTree(t, n, m)
	fs.FailAt(fs.OpCount()+1, nil)
	if _, err := f.ProveRange(10, 12); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("first proof with a failing load = %v, want the injected error", err)
	}
	if f.upper.Load() != nil {
		t.Fatal("a failed load left resident layers behind")
	}
	fs.FailAt(fs.OpCount()+1, nil)
	failed := 0
	for _, err := range prove(f) {
		switch {
		case errors.Is(err, vfs.ErrInjected):
			failed++
		case err != nil:
			t.Fatal(err)
		}
	}
	if failed != 1 {
		t.Fatalf("%d of 8 racing provers saw the one injected failure, want 1", failed)
	}
	if f.upper.Load() == nil {
		t.Fatal("the load after a failed one kept nothing")
	}
}

// TestProveRangeReadsPerProof holds the cost model: after the one load,
// a proof issues at most one read per on-disk layer — at most two.
func TestProveRangeReadsPerProof(t *testing.T) {
	const n, m = 70001, 4
	_, f, _, _ := memTree(t, n, m)
	if _, err := f.ProveRange(0, 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		lo := rng.Int63n(n)
		hi := lo + rng.Int63n(min(n-lo, 300))
		before := f.HashReads()
		if _, err := f.ProveRange(lo, hi); err != nil {
			t.Fatal(err)
		}
		if reads := f.HashReads() - before; reads > 2 {
			t.Fatalf("[%d,%d]: %d reads, the model allows 2", lo, hi, reads)
		}
	}
}

// TestResidentLayersFailClosed: a flipped byte anywhere in the resident
// layers — a node above the lowest one, a lowest-layer node (caught by
// its parent), or the root — fails the load with an ErrCorrupt naming the
// file, caches nothing, and fails again on the next proof. A root that
// disagrees with the committed one fails the same way; with no committed
// root (Open) only internal consistency is checked.
func TestResidentLayersFailClosed(t *testing.T) {
	const n, m = 1000, 4
	counts := LayerCounts(n, m)
	offs := LayerOffsets(counts)
	for _, c := range []struct {
		name string
		node int64 // record index in the file
	}{
		{"lowest-resident", offs[residentFrom] + 1},
		{"above-lowest", offs[residentFrom+1]},
		{"root", offs[len(offs)-1]},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs, f, _, _ := memTree(t, n, m)
			if err := fs.FlipByte("tree.mrk", c.node*types.HashSize+5); err != nil {
				t.Fatal(err)
			}
			for attempt := 0; attempt < 2; attempt++ {
				_, err := f.ProveRange(17, 19)
				var ec *types.ErrCorrupt
				if !errors.As(err, &ec) || ec.File != "tree.mrk" {
					t.Fatalf("attempt %d: proof over a damaged layer = %v, want ErrCorrupt naming tree.mrk", attempt, err)
				}
				if f.upper.Load() != nil {
					t.Fatal("damaged layers were published")
				}
			}
		})
	}

	fs, _, _, root := memTree(t, n, m)
	wrong := root
	wrong[0] ^= 1
	f, err := OpenFS(fs, "tree.mrk", n, m, wrong)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ec *types.ErrCorrupt
	if _, err := f.ProveRange(3, 4); !errors.As(err, &ec) {
		t.Fatalf("root unlike the committed one = %v, want ErrCorrupt", err)
	}
	unrooted, err := OpenFS(fs, "tree.mrk", n, m, types.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	defer unrooted.Close()
	if _, err := unrooted.ProveRange(3, 4); err != nil {
		t.Fatalf("an intact file with no committed root: %v", err)
	}
}
