// Package chain is the blockchain substrate: blocks, transactions, and a
// deterministic transaction executor over pluggable state backends.
//
// It replaces the paper's Rust-EVM harness: the evaluation's smart
// contracts (SmallBank, YCSB KVStore from Blockbench) only read and update
// fixed-size states, so the storage layer observes exactly the same access
// patterns from this interpreter as from an EVM. Transactions are packed
// into blocks (100/block in the paper); each block header carries the
// previous block hash, a timestamp surrogate, the transaction Merkle root
// Htx, and the state root Hstate (Figure 2).
package chain

import (
	"encoding/binary"
	"fmt"

	"cole/internal/mht"
	"cole/internal/types"
)

// TxKind enumerates the contract operations of the two Blockbench
// benchmarks used in the paper (§8.1.3).
type TxKind uint8

// SmallBank operations plus the YCSB KVStore pair.
const (
	TxTransactSavings TxKind = iota
	TxDepositChecking
	TxSendPayment
	TxWriteCheck
	TxAmalgamate
	TxQuery
	TxKVRead
	TxKVWrite
)

// String names the operation.
func (k TxKind) String() string {
	switch k {
	case TxTransactSavings:
		return "TransactSavings"
	case TxDepositChecking:
		return "DepositChecking"
	case TxSendPayment:
		return "SendPayment"
	case TxWriteCheck:
		return "WriteCheck"
	case TxAmalgamate:
		return "Amalgamate"
	case TxQuery:
		return "Query"
	case TxKVRead:
		return "KVRead"
	case TxKVWrite:
		return "KVWrite"
	}
	return fmt.Sprintf("TxKind(%d)", uint8(k))
}

// Tx is one transaction: an operation over one or two parties.
type Tx struct {
	Kind   TxKind
	A, B   string // party identifiers (account names / YCSB keys)
	Amount uint64
}

// Hash digests the transaction for the block's Merkle tree.
func (tx Tx) Hash() types.Hash {
	var amt [9]byte
	amt[0] = byte(tx.Kind)
	binary.BigEndian.PutUint64(amt[1:], tx.Amount)
	return types.HashData(amt[:], []byte(tx.A), []byte{0}, []byte(tx.B))
}

// Header is a block header (Figure 2).
type Header struct {
	Height   uint64
	PrevHash types.Hash
	TS       uint64 // deterministic timestamp surrogate
	Htx      types.Hash
	Hstate   types.Hash
}

// Hash digests the header, chaining blocks together.
func (h Header) Hash() types.Hash {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[0:8], h.Height)
	binary.BigEndian.PutUint64(buf[8:16], h.TS)
	return types.HashData(buf[:], h.PrevHash[:], h.Htx[:], h.Hstate[:])
}

// StateBackend abstracts the four storage engines under the executor
// (COLE, COLE*, MPT, LIPP, CMI).
type StateBackend interface {
	// BeginBlock opens block height for writes.
	BeginBlock(height uint64) error
	// Put writes a state update into the open block.
	Put(addr types.Address, v types.Value) error
	// Get reads the latest value of a state.
	Get(addr types.Address) (types.Value, bool, error)
	// Commit seals the open block and returns Hstate.
	Commit() (types.Hash, error)
	// Close releases resources.
	Close() error
}

// Account state addresses: SmallBank keeps two states per account
// (savings and checking), the KVStore contract one per key.
func savingsAddr(acct string) types.Address  { return types.AddressFromString("sb/s/" + acct) }
func checkingAddr(acct string) types.Address { return types.AddressFromString("sb/c/" + acct) }

// KVAddr is the state address of a YCSB KVStore record.
func KVAddr(key string) types.Address { return types.AddressFromString("kv/" + key) }

func balance(b StateBackend, addr types.Address) (uint64, error) {
	v, ok, err := b.Get(addr)
	if err != nil || !ok {
		return 0, err
	}
	return v.Uint64(), nil
}

// applyTx interprets one transaction against the backend — the same
// read/update pattern the Blockbench contracts produce.
func applyTx(b StateBackend, tx Tx) error {
	switch tx.Kind {
	case TxTransactSavings:
		s, err := balance(b, savingsAddr(tx.A))
		if err != nil {
			return err
		}
		return b.Put(savingsAddr(tx.A), types.ValueFromUint64(s+tx.Amount))
	case TxDepositChecking:
		c, err := balance(b, checkingAddr(tx.A))
		if err != nil {
			return err
		}
		return b.Put(checkingAddr(tx.A), types.ValueFromUint64(c+tx.Amount))
	case TxSendPayment:
		ca, err := balance(b, checkingAddr(tx.A))
		if err != nil {
			return err
		}
		cb, err := balance(b, checkingAddr(tx.B))
		if err != nil {
			return err
		}
		amt := tx.Amount
		if amt > ca {
			amt = ca // insufficient funds: transfer what exists
		}
		if err := b.Put(checkingAddr(tx.A), types.ValueFromUint64(ca-amt)); err != nil {
			return err
		}
		return b.Put(checkingAddr(tx.B), types.ValueFromUint64(cb+amt))
	case TxWriteCheck:
		s, err := balance(b, savingsAddr(tx.A))
		if err != nil {
			return err
		}
		c, err := balance(b, checkingAddr(tx.A))
		if err != nil {
			return err
		}
		amt := tx.Amount
		if amt > s+c {
			amt = s + c
		}
		if amt > c {
			amt = c
		}
		return b.Put(checkingAddr(tx.A), types.ValueFromUint64(c-amt))
	case TxAmalgamate:
		s, err := balance(b, savingsAddr(tx.A))
		if err != nil {
			return err
		}
		c, err := balance(b, checkingAddr(tx.A))
		if err != nil {
			return err
		}
		cb, err := balance(b, checkingAddr(tx.B))
		if err != nil {
			return err
		}
		if err := b.Put(savingsAddr(tx.A), types.ValueFromUint64(0)); err != nil {
			return err
		}
		if err := b.Put(checkingAddr(tx.A), types.ValueFromUint64(0)); err != nil {
			return err
		}
		return b.Put(checkingAddr(tx.B), types.ValueFromUint64(cb+s+c))
	case TxQuery:
		if _, err := balance(b, savingsAddr(tx.A)); err != nil {
			return err
		}
		_, err := balance(b, checkingAddr(tx.A))
		return err
	case TxKVRead:
		_, _, err := b.Get(KVAddr(tx.A))
		return err
	case TxKVWrite:
		return b.Put(KVAddr(tx.A), types.ValueFromUint64(tx.Amount))
	}
	return fmt.Errorf("chain: unknown tx kind %d", tx.Kind)
}

// Chain executes blocks against a backend and maintains the header chain.
type Chain struct {
	backend  StateBackend
	lastHash types.Hash
	height   uint64
	headers  []Header // retained for inspection; headers are small
}

// New creates a chain over a backend, starting above the backend's
// current height (0 for a fresh store).
func New(backend StateBackend, startHeight uint64) *Chain {
	return &Chain{backend: backend, height: startHeight}
}

// Height returns the last executed block height.
func (c *Chain) Height() uint64 { return c.height }

// ExecuteBlock packs the transactions into the next block, applies them,
// and seals the header with Htx and Hstate.
func (c *Chain) ExecuteBlock(txs []Tx) (Header, error) {
	h := c.height + 1
	if err := c.backend.BeginBlock(h); err != nil {
		return Header{}, err
	}
	leaves := make([]types.Hash, len(txs))
	for i, tx := range txs {
		if err := applyTx(c.backend, tx); err != nil {
			return Header{}, fmt.Errorf("chain: block %d tx %d (%s): %w", h, i, tx.Kind, err)
		}
		leaves[i] = tx.Hash()
	}
	hstate, err := c.backend.Commit()
	if err != nil {
		return Header{}, err
	}
	hdr := Header{
		Height:   h,
		PrevHash: c.lastHash,
		TS:       h, // deterministic surrogate: real chains stamp wall time
		Htx:      mht.RootOf(leaves, 2),
		Hstate:   hstate,
	}
	c.height = h
	c.lastHash = hdr.Hash()
	c.headers = append(c.headers, hdr)
	return hdr, nil
}
