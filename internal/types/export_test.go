package types

import (
	"math/big"
	"math/bits"
)

// Cmp returns -1, 0, or +1 comparing u and v numerically.
func (u U256) Cmp(v U256) int {
	for i := 3; i >= 0; i-- {
		if u[i] < v[i] {
			return -1
		}
		if u[i] > v[i] {
			return 1
		}
	}
	return 0
}

// Sub returns u − v. The caller must ensure u ≥ v (keys are compared before
// subtracting); underflow wraps like two's-complement, matching uint
// semantics, and is guarded by tests.
func (u U256) Sub(v U256) U256 {
	var r U256
	var borrow uint64
	for i := 0; i < 4; i++ {
		r[i], borrow = bits.Sub64(u[i], v[i], borrow)
	}
	return r
}

// Add returns u + v, wrapping on overflow.
func (u U256) Add(v U256) U256 {
	var r U256
	var carry uint64
	for i := 0; i < 4; i++ {
		r[i], carry = bits.Add64(u[i], v[i], carry)
	}
	return r
}

// IsZero reports whether u == 0.
func (u U256) IsZero() bool { return u[0]|u[1]|u[2]|u[3] == 0 }

// BitLen returns the number of bits in u's minimal representation.
func (u U256) BitLen() int {
	for i := 3; i >= 0; i-- {
		if u[i] != 0 {
			return i*64 + bits.Len64(u[i])
		}
	}
	return 0
}

// Big converts u to a math/big integer (used by tests to cross-check the
// limb arithmetic against the stdlib reference implementation).
func (u U256) Big() *big.Int {
	b := new(big.Int)
	for i := 3; i >= 0; i-- {
		b.Lsh(b, 64)
		b.Or(b, new(big.Int).SetUint64(u[i]))
	}
	return b
}
