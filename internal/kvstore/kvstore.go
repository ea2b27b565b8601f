// Package kvstore is a from-scratch log-structured merge key-value store.
//
// It stands in for RocksDB, which the paper uses as the storage backend of
// every baseline (MPT, LIPP, CMI). The baselines need only RocksDB's
// shape, not its tuning: an in-memory write buffer, immutable
// sorted-string tables with sparse indexes and Bloom filters, and
// size-tiered compaction with exponentially growing levels. Durability of
// unflushed writes follows the blockchain model (transaction replay), so
// there is no WAL; Flush forces the write buffer to disk.
package kvstore

import (
	"bytes"
	"fmt"
	"os"

	"sort"
	"sync"
)

// Options configures a DB.
type Options struct {
	// Dir is the storage directory.
	Dir string
	// MemBytes is the write-buffer budget before a flush (default 4 MiB;
	// the paper gives RocksDB a 64 MiB memory budget at full scale).
	MemBytes int
	// SizeRatio is the tiering factor T (default 4).
	SizeRatio int
}

func (o Options) withDefaults() Options {
	if o.MemBytes == 0 {
		o.MemBytes = 4 << 20
	}
	if o.SizeRatio == 0 {
		o.SizeRatio = 4
	}
	return o
}

// Stats aggregates DB counters.
type Stats struct {
	Puts         int64
	Gets         int64
	Deletes      int64
	Flushes      int64
	Compactions  int64
	BytesFlushed int64
	BytesMerged  int64 // write amplification source
	TableReads   int64 // sstable point lookups that touched disk
}

// DB is an LSM key-value store.
type DB struct {
	opts Options

	mu       sync.Mutex
	mem      map[string][]byte // nil value slice = tombstone
	memBytes int
	levels   [][]*sstable // levels[i] ordered oldest → newest
	purge    []*sstable   // superseded tables awaiting unlink
	nextID   uint64
	stats    Stats
	closed   bool
}

// tombstone marks a deleted key inside the memtable; on disk it is a
// record with the tombstone flag.
var tombstone []byte // nil

// Open creates or reopens a DB.
func Open(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("kvstore: Options.Dir is required")
	}
	if opts.SizeRatio < 2 {
		return nil, fmt.Errorf("kvstore: SizeRatio %d < 2", opts.SizeRatio)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	db := &DB{opts: opts, mem: make(map[string][]byte)}
	if err := db.loadCurrent(); err != nil {
		return nil, err
	}
	return db, nil
}

// Put stores a key-value pair (value is copied).
func (db *DB) Put(key, value []byte) error {
	if value == nil {
		value = []byte{}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("kvstore: put on closed DB")
	}
	db.stats.Puts++
	// make (not append) so an empty value stays non-nil: nil is the
	// in-memory tombstone sentinel.
	cp := make([]byte, len(value))
	copy(cp, value)
	db.putLocked(key, cp)
	return db.maybeFlushLocked()
}

// Delete removes a key (writes a tombstone).
func (db *DB) Delete(key []byte) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("kvstore: delete on closed DB")
	}
	db.stats.Deletes++
	db.putLocked(key, tombstone)
	return db.maybeFlushLocked()
}

func (db *DB) putLocked(key, value []byte) {
	k := string(key)
	if old, ok := db.mem[k]; ok {
		db.memBytes -= len(k) + len(old)
	}
	db.mem[k] = value
	db.memBytes += len(k) + len(value)
}

func (db *DB) maybeFlushLocked() error {
	if db.memBytes < db.opts.MemBytes {
		return nil
	}
	return db.flushLocked()
}

// Get returns the newest value for key.
func (db *DB) Get(key []byte) ([]byte, bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.stats.Gets++
	if v, ok := db.mem[string(key)]; ok {
		if v == nil {
			return nil, false, nil
		}
		return append([]byte(nil), v...), true, nil
	}
	// Newest data first: lower levels, newest table first.
	for _, lvl := range db.levels {
		for i := len(lvl) - 1; i >= 0; i-- {
			v, deleted, ok, err := lvl[i].get(key, &db.stats)
			if err != nil {
				return nil, false, err
			}
			if ok {
				if deleted {
					return nil, false, nil
				}
				return v, true, nil
			}
		}
	}
	return nil, false, nil
}

// Flush forces the write buffer to disk.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.mem) == 0 {
		return nil
	}
	return db.flushLocked()
}

func (db *DB) flushLocked() error {
	if len(db.mem) == 0 {
		return nil
	}
	keys := make([]string, 0, len(db.mem))
	for k := range db.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recs := make([]record, len(keys))
	for i, k := range keys {
		v := db.mem[k]
		recs[i] = record{key: []byte(k), value: v, tomb: v == nil}
	}
	id := db.nextID
	db.nextID++
	t, err := writeTable(db.opts.Dir, id, recs)
	if err != nil {
		return err
	}
	db.stats.Flushes++
	db.stats.BytesFlushed += t.size
	if len(db.levels) == 0 {
		db.levels = append(db.levels, nil)
	}
	db.levels[0] = append(db.levels[0], t)
	db.mem = make(map[string][]byte)
	db.memBytes = 0
	if err := db.compactLocked(); err != nil {
		return err
	}
	return db.writeCurrentLocked()
}

// compactLocked merges any level that reached the size ratio into the
// next one (size-tiered compaction). The newest version of each key wins;
// tombstones are dropped when the output lands on the last level.
func (db *DB) compactLocked() error {
	for i := 0; i < len(db.levels); i++ {
		if len(db.levels[i]) < db.opts.SizeRatio {
			break
		}
		isLast := i == len(db.levels)-1
		merged, err := db.mergeTables(db.levels[i], isLast)
		if err != nil {
			return err
		}
		old := db.levels[i]
		db.levels[i] = nil
		if len(db.levels) == i+1 {
			db.levels = append(db.levels, nil)
		}
		db.levels[i+1] = append(db.levels[i+1], merged)
		db.stats.Compactions++
		// Old tables are unlinked after the new CURRENT is durable; keep
		// them in a purge list.
		db.purge = append(db.purge, old...)
	}
	return nil
}

// mergeTables k-way merges tables (oldest → newest order) into one new
// table, newest version of each key winning.
func (db *DB) mergeTables(tables []*sstable, dropTombs bool) (*sstable, error) {
	its := make([]*tableIterator, len(tables))
	for i, t := range tables {
		its[i] = t.iterator()
	}
	var out []record
	type cur struct {
		rec record
		src int // index in tables; higher = newer
	}
	cursors := make([]*cur, 0, len(its))
	for i, it := range its {
		if r, ok := it.next(); ok {
			cursors = append(cursors, &cur{rec: r, src: i})
		}
		if err := its[i].err; err != nil {
			return nil, err
		}
	}
	for len(cursors) > 0 {
		// Find the minimal key; among equals pick the newest source.
		best := 0
		for i := 1; i < len(cursors); i++ {
			c := bytes.Compare(cursors[i].rec.key, cursors[best].rec.key)
			if c < 0 || (c == 0 && cursors[i].src > cursors[best].src) {
				best = i
			}
		}
		chosen := cursors[best]
		if !(chosen.rec.tomb && dropTombs) {
			out = append(out, chosen.rec)
		}
		// Advance every cursor sitting on the chosen key.
		key := chosen.rec.key
		next := cursors[:0]
		for _, c := range cursors {
			for bytes.Equal(c.rec.key, key) {
				r, ok := its[c.src].next()
				if !ok {
					if err := its[c.src].err; err != nil {
						return nil, err
					}
					c = nil
					break
				}
				c.rec = r
			}
			if c != nil {
				next = append(next, c)
			}
		}
		cursors = next
	}
	id := db.nextID
	db.nextID++
	t, err := writeTable(db.opts.Dir, id, out)
	if err != nil {
		return nil, err
	}
	db.stats.BytesMerged += t.size
	return t, nil
}

// purge holds tables awaiting unlink (declared on DB below via field).

// SizeOnDisk sums the bytes of all live tables.
func (db *DB) SizeOnDisk() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var s int64
	for _, lvl := range db.levels {
		for _, t := range lvl {
			s += t.size
		}
	}
	return s
}

// MemBytes returns the current write-buffer size.
func (db *DB) MemBytes() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.memBytes
}

// Stats returns a snapshot of the counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
}

// Close flushes the write buffer and releases file handles.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	var err error
	if len(db.mem) > 0 {
		err = db.flushLocked()
	}
	db.closed = true
	for _, lvl := range db.levels {
		for _, t := range lvl {
			t.close()
		}
	}
	return err
}
