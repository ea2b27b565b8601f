package run

import (
	"cole/internal/types"
)

// Digest recomputes a run digest from its components, the reference
// Run.Digest is checked against.
func Digest(mhtRoot types.Hash, bloomBytes []byte) types.Hash {
	bd := types.HashData(bloomBytes)
	return types.HashData(mhtRoot[:], bd[:])
}
