package mht

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cole/internal/types"
)

func leafSet(n int64) []types.Hash {
	leaves := make([]types.Hash, n)
	for i := range leaves {
		leaves[i] = types.HashData([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	return leaves
}

// TestWriterCoalescingByteIdentical proves the buffered layer flushes
// are pure batching: across tree shapes (incl. short last groups and a
// single leaf) every buffer size yields the same file bytes and root as
// the per-group write granularity.
func TestWriterCoalescingByteIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		n int64
		m int
	}{
		{1, 2}, {2, 2}, {5, 2}, {64, 2}, {65, 2},
		{3, 4}, {16, 4}, {17, 4}, {1000, 4}, {1000, 16},
	} {
		var want []byte
		var wantRoot types.Hash
		for i, bufBytes := range []int{1 /* per-group */, 256, 4096, 0 /* default */} {
			path := filepath.Join(dir, fmt.Sprintf("n%d-m%d-b%d.mrk", tc.n, tc.m, bufBytes))
			w, err := CreateWriterFS(nil, path, tc.n, tc.m, bufBytes)
			if err != nil {
				t.Fatal(err)
			}
			leaves := leafSet(tc.n)
			for _, l := range leaves {
				if err := w.Add(l); err != nil {
					t.Fatal(err)
				}
			}
			root, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want, wantRoot = raw, root
				if mem := RootOf(leaves, tc.m); mem != root {
					t.Fatalf("n=%d m=%d: streaming root != in-memory root", tc.n, tc.m)
				}
				continue
			}
			if root != wantRoot {
				t.Fatalf("n=%d m=%d buf=%d: root mismatch", tc.n, tc.m, bufBytes)
			}
			if !bytes.Equal(raw, want) {
				t.Fatalf("n=%d m=%d buf=%d: file bytes differ", tc.n, tc.m, bufBytes)
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
