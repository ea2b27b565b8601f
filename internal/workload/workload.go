// Package workload generates benchmark traffic for the storage engines.
//
// Two generator families live here. The paper generators reproduce the
// evaluation's macro benchmarks (§8.1.3) — SmallBank and the YCSB-style
// KVStore from Blockbench, plus the provenance workload of §8.2.5 (a
// small base set updated continuously) — as chain.Tx streams for the
// transaction executor.
//
// The Spec API (spec.go, generators.go) drives the stores outside the
// paper's figures: a declarative Spec (key population, value size,
// distribution, read/write mix, duration, warm-up, seed) that New turns
// into a Generator yielding raw store operations. It covers uniform and
// zipfian (YCSB request skew) distributions; a new access pattern is one
// more case in New's switch.
//
// All generators are deterministic given a seed, so identical workloads
// can be replayed across engines and across recovering nodes.
package workload

import (
	"fmt"
	"math/rand"

	"cole/internal/chain"
)

// Mix is a read/write transaction mix for the KVStore workload (§8.2.2).
type Mix int

// The three mixes of Figure 11.
const (
	ReadWrite Mix = iota // 50/50
	ReadOnly
	WriteOnly
)

// String names the mix like the paper's axis labels.
func (m Mix) String() string {
	switch m {
	case ReadOnly:
		return "RO"
	case ReadWrite:
		return "RW"
	case WriteOnly:
		return "WO"
	}
	return fmt.Sprintf("Mix(%d)", int(m))
}

// SmallBank generates account-transfer transactions: six operations with
// equal probability over a fixed account population.
type SmallBank struct {
	rng      *rand.Rand
	accounts int
}

// NewSmallBank creates a generator over `accounts` accounts.
func NewSmallBank(seed int64, accounts int) *SmallBank {
	if accounts < 2 {
		accounts = 2
	}
	return &SmallBank{rng: rand.New(rand.NewSource(seed)), accounts: accounts}
}

func (s *SmallBank) account() string {
	return fmt.Sprintf("acct%06d", s.rng.Intn(s.accounts))
}

// Next returns the next transaction.
func (s *SmallBank) Next() chain.Tx {
	a := s.account()
	b := s.account()
	for b == a {
		b = s.account()
	}
	amt := uint64(s.rng.Intn(100) + 1)
	switch s.rng.Intn(6) {
	case 0:
		return chain.Tx{Kind: chain.TxTransactSavings, A: a, Amount: amt}
	case 1:
		return chain.Tx{Kind: chain.TxDepositChecking, A: a, Amount: amt}
	case 2:
		return chain.Tx{Kind: chain.TxSendPayment, A: a, B: b, Amount: amt}
	case 3:
		return chain.Tx{Kind: chain.TxWriteCheck, A: a, Amount: amt}
	case 4:
		return chain.Tx{Kind: chain.TxAmalgamate, A: a, B: b}
	default:
		return chain.Tx{Kind: chain.TxQuery, A: a}
	}
}

// Block returns the next n transactions.
func (s *SmallBank) Block(n int) []chain.Tx {
	txs := make([]chain.Tx, n)
	for i := range txs {
		txs[i] = s.Next()
	}
	return txs
}

// KVStore generates YCSB-style transactions: a Zipfian key popularity
// distribution over a fixed record population, with a configurable
// read/write mix.
type KVStore struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	records int
	mix     Mix
	seq     uint64
}

// NewKVStore creates a generator over `records` keys. The Zipf skew
// (s=1.01, v=1) matches YCSB's default "zipfian" request distribution.
func NewKVStore(seed int64, records int, mix Mix) *KVStore {
	if records < 1 {
		records = 1
	}
	rng := rand.New(rand.NewSource(seed))
	return &KVStore{
		rng:     rng,
		zipf:    rand.NewZipf(rng, 1.01, 1, uint64(records-1)),
		records: records,
		mix:     mix,
	}
}

func kvKey(i uint64) string { return fmt.Sprintf("user%08d", i) }

// LoadPhase returns the YCSB loading-phase transactions: one write per
// record, inserting the base data.
func (k *KVStore) LoadPhase() []chain.Tx {
	txs := make([]chain.Tx, k.records)
	for i := range txs {
		txs[i] = chain.Tx{Kind: chain.TxKVWrite, A: kvKey(uint64(i)), Amount: uint64(i)}
	}
	return txs
}

// Next returns the next running-phase transaction.
func (k *KVStore) Next() chain.Tx {
	key := kvKey(k.zipf.Uint64())
	write := false
	switch k.mix {
	case WriteOnly:
		write = true
	case ReadWrite:
		write = k.rng.Intn(2) == 0
	}
	if write {
		k.seq++
		return chain.Tx{Kind: chain.TxKVWrite, A: key, Amount: k.seq}
	}
	return chain.Tx{Kind: chain.TxKVRead, A: key}
}

// Block returns the next n transactions.
func (k *KVStore) Block(n int) []chain.Tx {
	txs := make([]chain.Tx, n)
	for i := range txs {
		txs[i] = k.Next()
	}
	return txs
}

// Provenance builds the §8.2.5 workload: `base` states written once, then
// continuous uniform updates over them, so every state accumulates a deep
// version history.
type Provenance struct {
	rng  *rand.Rand
	base int
	seq  uint64
}

// NewProvenance creates the generator (the paper uses base = 100).
func NewProvenance(seed int64, base int) *Provenance {
	if base < 1 {
		base = 1
	}
	return &Provenance{rng: rand.New(rand.NewSource(seed)), base: base}
}

// ProvKey returns the i-th base key's identifier.
func ProvKey(i int) string { return fmt.Sprintf("prov%04d", i) }

// LoadPhase writes the base states.
func (p *Provenance) LoadPhase() []chain.Tx {
	txs := make([]chain.Tx, p.base)
	for i := range txs {
		txs[i] = chain.Tx{Kind: chain.TxKVWrite, A: ProvKey(i), Amount: 0}
	}
	return txs
}

// Next returns the next update transaction.
func (p *Provenance) Next() chain.Tx {
	p.seq++
	return chain.Tx{Kind: chain.TxKVWrite, A: ProvKey(p.rng.Intn(p.base)), Amount: p.seq}
}

// Block returns the next n transactions.
func (p *Provenance) Block(n int) []chain.Tx {
	txs := make([]chain.Tx, n)
	for i := range txs {
		txs[i] = p.Next()
	}
	return txs
}
