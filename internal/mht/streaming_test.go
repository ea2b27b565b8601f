package mht

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"cole/internal/types"
	"cole/internal/vfs"
)

func leafSet(n int64) []types.Hash {
	leaves := make([]types.Hash, n)
	for i := range leaves {
		leaves[i] = types.HashData([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	return leaves
}

// layeredImage is the reference Merkle file: each layer built in memory
// from the one below — HashConcat over groups of m, the last group
// possibly short — and serialized at its LayerOffsets.
func layeredImage(t *testing.T, leaves []types.Hash, m int) []byte {
	t.Helper()
	counts := LayerCounts(int64(len(leaves)), m)
	offs := LayerOffsets(counts)
	img := make([]byte, TotalNodes(counts)*types.HashSize)
	layer := leaves
	for i, c := range counts {
		if int64(len(layer)) != c {
			t.Fatalf("layer %d holds %d nodes, LayerCounts says %d", i, len(layer), c)
		}
		for j, h := range layer {
			copy(img[(offs[i]+int64(j))*types.HashSize:], h[:])
		}
		var next []types.Hash
		for g := 0; g < len(layer) && len(layer) > 1; g += m {
			next = append(next, types.HashConcat(layer[g:min(g+m, len(layer))]...))
		}
		layer = next
	}
	return img
}

// writeSpans writes a Merkle file over leaves with one SpanWriter per
// span between the cuts: leaves go to the spans in a random interleaving,
// each span closes when the draw finds it full, and Stitch completes the
// file.
func writeSpans(fs vfs.FS, path string, leaves []types.Hash, m, bufBytes int, cuts []int64, rng *rand.Rand) (types.Hash, error) {
	n := int64(len(leaves))
	s, err := CreateShared(fs, path, n, m, bufBytes)
	if err != nil {
		return types.Hash{}, err
	}
	bounds := append(append([]int64{0}, cuts...), n)
	spans := make([][2]int64, len(bounds)-1)
	writers := make([]*SpanWriter, len(spans))
	next := make([]int64, len(spans))
	open := make([]int, len(spans))
	for i := range spans {
		spans[i] = [2]int64{bounds[i], bounds[i+1]}
		if writers[i], err = s.Span(bounds[i], bounds[i+1]); err != nil {
			return types.Hash{}, err
		}
		next[i], open[i] = bounds[i], i
	}
	for len(open) > 0 {
		k := rng.Intn(len(open))
		i := open[k]
		if next[i] == spans[i][1] {
			if err := writers[i].Close(); err != nil {
				return types.Hash{}, err
			}
			open = append(open[:k], open[k+1:]...)
			continue
		}
		if err := writers[i].Add(leaves[next[i]]); err != nil {
			return types.Hash{}, err
		}
		next[i]++
	}
	return s.Stitch(spans)
}

// TestSpanCutsMatchLayeredReference: a Merkle file written by 1–8 spans
// cut at arbitrary leaves (not page-aligned), filled in random order at
// every buffer size, is byte for byte the layer-by-layer reference, and
// its root is RootOf's — for 3 000 random shapes (n ≤ 300, m ≤ 8; ≈ 2 s
// under -race, so -short runs them all).
func TestSpanCutsMatchLayeredReference(t *testing.T) {
	const cases = 3000
	rng := rand.New(rand.NewSource(24))
	fs := vfs.NewMem()
	for c := 0; c < cases; c++ {
		n := 1 + rng.Int63n(300)
		m := 2 + rng.Intn(7)
		bufBytes := []int{1, 64, 0}[c%3]
		cuts := make([]int64, min(int64(rng.Intn(8)), n-1))
		for i, p := range rng.Perm(int(n - 1))[:len(cuts)] {
			cuts[i] = int64(p) + 1
		}
		slices.Sort(cuts)
		leaves := make([]types.Hash, n)
		for i := range leaves {
			rng.Read(leaves[i][:])
		}
		path := fmt.Sprintf("case-%d.mrk", c)
		root, err := writeSpans(fs, path, leaves, m, bufBytes, cuts, rng)
		if err != nil {
			t.Fatalf("n=%d m=%d cuts=%v buf=%d: %v", n, m, cuts, bufBytes, err)
		}
		raw, err := fs.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, layeredImage(t, leaves, m)) {
			t.Fatalf("n=%d m=%d cuts=%v buf=%d: file differs from the layered reference", n, m, cuts, bufBytes)
		}
		if root != RootOf(leaves, m) {
			t.Fatalf("n=%d m=%d cuts=%v buf=%d: root differs from RootOf", n, m, cuts, bufBytes)
		}
		if err := fs.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLeafReader checks the readahead leaf stream returns exactly the
// bottom-layer hashes, for sequential and random access across window
// sizes.
func TestLeafReader(t *testing.T) {
	const n, m = 777, 4
	dir := t.TempDir()
	path := filepath.Join(dir, "leaves.mrk")
	w, err := CreateWriter(path, n, m)
	if err != nil {
		t.Fatal(err)
	}
	leaves := leafSet(n)
	for _, l := range leaves {
		if err := w.Add(l); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path, n, m)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for _, bufBytes := range []int{1, types.HashSize * 10, 0 /* default */} {
		lr := f.LeafStream(bufBytes)
		for i := int64(0); i < n; i++ {
			h, err := lr.At(i)
			if err != nil {
				t.Fatal(err)
			}
			if h != leaves[i] {
				t.Fatalf("buf=%d: leaf %d mismatch", bufBytes, i)
			}
		}
		// Random-order access still works (window refills backwards).
		for _, i := range []int64{n - 1, 0, n / 2, 3, n - 2} {
			h, err := lr.At(i)
			if err != nil {
				t.Fatal(err)
			}
			if h != leaves[i] {
				t.Fatalf("buf=%d: random leaf %d mismatch", bufBytes, i)
			}
		}
		if _, err := lr.At(n); err == nil {
			t.Fatal("out-of-range leaf accepted")
		}
		if _, err := lr.At(-1); err == nil {
			t.Fatal("negative leaf accepted")
		}
	}
}
