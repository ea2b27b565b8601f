package mht

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
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

// writeTree streams leaves through one Writer into a Merkle file.
func writeTree(fs vfs.FS, path string, leaves []types.Hash, m, bufBytes int) (types.Hash, error) {
	w, err := Create(fs, path, int64(len(leaves)), m, bufBytes)
	if err != nil {
		return types.Hash{}, err
	}
	for _, l := range leaves {
		if err := w.Add(l); err != nil {
			return types.Hash{}, err
		}
	}
	return w.Finish()
}

// TestWriterMatchesLayeredReference: a Merkle file streamed through one
// Writer is byte for byte the layer-by-layer reference, and its root is
// RootOf's, for every n × m × bufBytes in the table — short last groups
// at every layer, single-node layers, and per-node to default write
// coalescing.
func TestWriterMatchesLayeredReference(t *testing.T) {
	var ns []int64
	for n := int64(1); n <= 40; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 63, 64, 65, 255, 256, 257, 300, 1025)
	rng := rand.New(rand.NewSource(24))
	fs := vfs.NewMem()
	for _, n := range ns {
		leaves := make([]types.Hash, n)
		for i := range leaves {
			rng.Read(leaves[i][:])
		}
		for m := 2; m <= 8; m++ {
			want := layeredImage(t, leaves, m)
			for _, bufBytes := range []int{1, 64, 0} {
				root, err := writeTree(fs, "tree.mrk", leaves, m, bufBytes)
				if err != nil {
					t.Fatalf("n=%d m=%d buf=%d: %v", n, m, bufBytes, err)
				}
				raw, err := fs.ReadFile("tree.mrk")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(raw, want) {
					t.Fatalf("n=%d m=%d buf=%d: file differs from the layered reference", n, m, bufBytes)
				}
				if root != RootOf(leaves, m) {
					t.Fatalf("n=%d m=%d buf=%d: root differs from RootOf", n, m, bufBytes)
				}
			}
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
