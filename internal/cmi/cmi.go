// Package cmi implements the paper's Column-based Merkle Index baseline
// (§8.1.1): the column-based design paired with *traditional* Merkle
// indexes instead of learned ones.
//
// Two-level structure, both levels on the kvstore (RocksDB substitute):
//
//   - Upper index: a non-persistent MPT keyed by state address whose value
//     is the root hash of that address's lower index. Hstate is the upper
//     trie's root.
//   - Lower index: per address, the historical versions stored
//     contiguously (seq → ⟨blk, value⟩) under an m-ary Merkle tree whose
//     interior hashes are materialized as kvstore entries and refreshed
//     along the append path — every version write re-reads and re-writes
//     O(m·log_m n) hash nodes plus the whole upper-trie path, the
//     read+write IO churn the paper blames for CMI being 7–22× slower
//     than MPT. (The paper uses an MB-tree [29] for the lower level; an
//     append-only m-ary Merkle array is the same structure specialized to
//     COLE's append-only version streams.)
package cmi

import (
	"encoding/binary"
	"fmt"

	"cole/internal/kvstore"
	"cole/internal/mpt"
	"cole/internal/types"
)

// Fanout of the lower-index Merkle trees.
const lowerFanout = 4

// Store is a CMI state store.
type Store struct {
	db    *kvstore.DB
	upper *mpt.Trie
	stats Stats
}

// Stats counts store operations.
type Stats struct {
	Puts      int64
	Gets      int64
	HashIO    int64 // lower-index hash nodes read+written
	VersionIO int64
}

// New creates a CMI store over db.
func New(db *kvstore.DB) *Store {
	return &Store{db: db, upper: mpt.New(db, false)}
}

// Root returns Hstate: the upper trie's root.
func (s *Store) Root() types.Hash { return s.upper.Root() }

// ---- lower-index key space ----

func versionKey(addr types.Address, seq uint64) []byte {
	k := make([]byte, 2+types.AddressSize+8)
	copy(k, "v/")
	copy(k[2:], addr[:])
	binary.BigEndian.PutUint64(k[2+types.AddressSize:], seq)
	return k
}

func countKey(addr types.Address) []byte {
	k := make([]byte, 2+types.AddressSize)
	copy(k, "c/")
	copy(k[2:], addr[:])
	return k
}

func hashKey(addr types.Address, layer int, idx uint64) []byte {
	k := make([]byte, 2+types.AddressSize+1+8)
	copy(k, "h/")
	copy(k[2:], addr[:])
	k[2+types.AddressSize] = byte(layer)
	binary.BigEndian.PutUint64(k[3+types.AddressSize:], idx)
	return k
}

func encodeVersion(blk uint64, v types.Value) []byte {
	out := make([]byte, 8+types.ValueSize)
	binary.BigEndian.PutUint64(out, blk)
	copy(out[8:], v[:])
	return out
}

func decodeVersion(raw []byte) (uint64, types.Value, error) {
	if len(raw) != 8+types.ValueSize {
		return 0, types.Value{}, fmt.Errorf("cmi: version record %d bytes", len(raw))
	}
	var v types.Value
	copy(v[:], raw[8:])
	return binary.BigEndian.Uint64(raw), v, nil
}

func (s *Store) versionCount(addr types.Address) (uint64, error) {
	raw, ok, err := s.db.Get(countKey(addr))
	if err != nil || !ok {
		return 0, err
	}
	if len(raw) != 8 {
		return 0, fmt.Errorf("cmi: corrupt count record")
	}
	return binary.BigEndian.Uint64(raw), nil
}

// Put appends a version of addr written at block blk and refreshes the
// Merkle path up to the upper trie.
func (s *Store) Put(addr types.Address, blk uint64, value types.Value) error {
	s.stats.Puts++
	n, err := s.versionCount(addr)
	if err != nil {
		return err
	}
	seq := n
	if n > 0 {
		// Same-block rewrite updates the newest version in place.
		raw, ok, err := s.db.Get(versionKey(addr, n-1))
		if err != nil {
			return err
		}
		if ok {
			lastBlk, _, err := decodeVersion(raw)
			if err != nil {
				return err
			}
			if lastBlk == blk {
				seq = n - 1
			}
		}
	}
	if err := s.db.Put(versionKey(addr, seq), encodeVersion(blk, value)); err != nil {
		return err
	}
	s.stats.VersionIO++
	newCount := seq + 1
	var cnt [8]byte
	binary.BigEndian.PutUint64(cnt[:], newCount)
	if err := s.db.Put(countKey(addr), cnt[:]); err != nil {
		return err
	}
	root, err := s.refreshPath(addr, seq, newCount, blk, value)
	if err != nil {
		return err
	}
	// Upper trie maps the address to the lower root (read+write IO along
	// the whole trie path, refreshing every node hash).
	return s.upper.Put(addr, types.Value(root))
}

// refreshPath recomputes the Merkle nodes covering position seq and
// returns the lower root. Layer 0 node i = h(version_i); layer ℓ node i =
// h(children i·m … i·m+m−1 of layer ℓ−1).
func (s *Store) refreshPath(addr types.Address, seq, count uint64, blk uint64, value types.Value) (types.Hash, error) {
	leaf := types.HashData(encodeVersion(blk, value))
	if err := s.db.Put(hashKey(addr, 0, seq), leaf[:]); err != nil {
		return types.Hash{}, err
	}
	s.stats.HashIO++
	layer := 0
	idx := seq
	layerCount := count
	for layerCount > 1 {
		parentIdx := idx / lowerFanout
		groupStart := parentIdx * lowerFanout
		groupEnd := groupStart + lowerFanout
		if groupEnd > layerCount {
			groupEnd = layerCount
		}
		hasher := make([]byte, 0, lowerFanout*types.HashSize)
		for i := groupStart; i < groupEnd; i++ {
			raw, ok, err := s.db.Get(hashKey(addr, layer, i))
			if err != nil {
				return types.Hash{}, err
			}
			if !ok {
				return types.Hash{}, fmt.Errorf("cmi: missing hash node (%d,%d) for %v", layer, i, addr)
			}
			s.stats.HashIO++
			hasher = append(hasher, raw...)
		}
		parent := types.HashData(hasher)
		if err := s.db.Put(hashKey(addr, layer+1, parentIdx), parent[:]); err != nil {
			return types.Hash{}, err
		}
		s.stats.HashIO++
		layer++
		idx = parentIdx
		layerCount = (layerCount + lowerFanout - 1) / lowerFanout
	}
	raw, ok, err := s.db.Get(hashKey(addr, layer, 0))
	if err != nil || !ok {
		return types.Hash{}, fmt.Errorf("cmi: missing lower root for %v: %v", addr, err)
	}
	var root types.Hash
	copy(root[:], raw)
	return root, nil
}

// Get returns the latest value of addr.
func (s *Store) Get(addr types.Address) (types.Value, bool, error) {
	s.stats.Gets++
	n, err := s.versionCount(addr)
	if err != nil || n == 0 {
		return types.Value{}, false, err
	}
	raw, ok, err := s.db.Get(versionKey(addr, n-1))
	if err != nil || !ok {
		return types.Value{}, false, err
	}
	_, v, err := decodeVersion(raw)
	if err != nil {
		return types.Value{}, false, err
	}
	return v, true, nil
}

// GetAt returns the value of addr active at block height blk.
func (s *Store) GetAt(addr types.Address, blk uint64) (types.Value, uint64, bool, error) {
	s.stats.Gets++
	n, err := s.versionCount(addr)
	if err != nil || n == 0 {
		return types.Value{}, 0, false, err
	}
	// Binary search the newest version with Blk ≤ blk.
	lo, hi := uint64(0), n-1
	found := false
	var ansBlk uint64
	var ansVal types.Value
	for lo <= hi {
		mid := lo + (hi-lo)/2
		raw, ok, err := s.db.Get(versionKey(addr, mid))
		if err != nil || !ok {
			return types.Value{}, 0, false, fmt.Errorf("cmi: missing version %d: %v", mid, err)
		}
		b, v, err := decodeVersion(raw)
		if err != nil {
			return types.Value{}, 0, false, err
		}
		if b <= blk {
			found, ansBlk, ansVal = true, b, v
			lo = mid + 1
		} else {
			if mid == 0 {
				break
			}
			hi = mid - 1
		}
	}
	return ansVal, ansBlk, found, nil
}

// ProvQuery returns the versions of addr within [blkLo, blkHi], newest
// first (CMI is dropped from the paper's provenance figures because it
// cannot scale; the query exists for completeness).
func (s *Store) ProvQuery(addr types.Address, blkLo, blkHi uint64) ([]types.Entry, error) {
	if blkHi < blkLo {
		return nil, fmt.Errorf("cmi: inverted range [%d,%d]", blkLo, blkHi)
	}
	n, err := s.versionCount(addr)
	if err != nil || n == 0 {
		return nil, err
	}
	var out []types.Entry
	for i := n; i > 0; i-- {
		raw, ok, err := s.db.Get(versionKey(addr, i-1))
		if err != nil || !ok {
			return nil, fmt.Errorf("cmi: missing version %d: %v", i-1, err)
		}
		b, v, err := decodeVersion(raw)
		if err != nil {
			return nil, err
		}
		if b < blkLo {
			break
		}
		if b <= blkHi {
			out = append(out, types.Entry{Key: types.CompoundKey{Addr: addr, Blk: b}, Value: v})
		}
	}
	return out, nil
}

// Stats returns counters.
func (s *Store) Stats() Stats { return s.stats }
