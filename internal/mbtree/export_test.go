package mbtree

import (
	"fmt"

	"cole/internal/types"
)

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
