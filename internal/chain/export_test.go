package chain

import (
	"fmt"

	"cole/internal/types"
)

// SavingsAddr exposes the savings state address of an account (used by
// provenance examples and tests).
func SavingsAddr(acct string) types.Address { return savingsAddr(acct) }

// CheckingAddr exposes the checking state address of an account.
func CheckingAddr(acct string) types.Address { return checkingAddr(acct) }

// Headers returns the executed block headers.
func (c *Chain) Headers() []Header { return c.headers }

// VerifyHeaderChain checks the hash chaining of a header sequence
// (integrity of the simulated ledger).
func VerifyHeaderChain(headers []Header) error {
	for i := 1; i < len(headers); i++ {
		if headers[i].PrevHash != headers[i-1].Hash() {
			return fmt.Errorf("chain: header %d does not link to %d", headers[i].Height, headers[i-1].Height)
		}
		if headers[i].Height != headers[i-1].Height+1 {
			return fmt.Errorf("chain: non-monotone heights %d → %d", headers[i-1].Height, headers[i].Height)
		}
	}
	return nil
}
