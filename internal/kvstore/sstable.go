package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"cole/internal/types"
)

// sstable file layout:
//
//	data    : repeated records — klen u32 | flags u8 | vlen u32 | key | value
//	index   : every indexStride-th record — klen u32 | key | offset u64
//	bloom   : serialized bloom filter over keys
//	footer  : dataLen u64 | indexLen u64 | bloomLen u64 | count u64 | magic u64
const (
	indexStride   = 16
	tableMagic    = 0x434f4c454b560001 // "COLEKV" v1
	flagTombstone = 1
)

type record struct {
	key   []byte
	value []byte
	tomb  bool
}

type sparseEntry struct {
	key    []byte
	offset int64
}

type sstable struct {
	id     uint64
	path   string
	f      *os.File
	size   int64
	count  int64
	dataLn int64
	sparse []sparseEntry
	filter *tableBloom
}

func tablePath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("sst-%016x.kv", id))
}

// tableBloom is a minimal bloom filter over raw byte keys (package bloom
// hashes fixed-width addresses; tables need arbitrary keys).
type tableBloom struct {
	bits   []uint64
	nbits  uint64
	hashes int
}

func newTableBloom(n int) *tableBloom {
	if n < 1 {
		n = 1
	}
	m := uint64(float64(n) * 10) // ~10 bits/key ≈ 1% fp
	if m < 64 {
		m = 64
	}
	return &tableBloom{bits: make([]uint64, (m+63)/64), nbits: m, hashes: 7}
}

func (b *tableBloom) hash(key []byte) (uint64, uint64) {
	h := types.HashData(key)
	return binary.BigEndian.Uint64(h[0:8]), binary.BigEndian.Uint64(h[8:16])
}

func (b *tableBloom) add(key []byte) {
	h1, h2 := b.hash(key)
	for i := 0; i < b.hashes; i++ {
		p := (h1 + uint64(i)*h2) % b.nbits
		b.bits[p/64] |= 1 << (p % 64)
	}
}

func (b *tableBloom) mayContain(key []byte) bool {
	h1, h2 := b.hash(key)
	for i := 0; i < b.hashes; i++ {
		p := (h1 + uint64(i)*h2) % b.nbits
		if b.bits[p/64]&(1<<(p%64)) == 0 {
			return false
		}
	}
	return true
}

func (b *tableBloom) marshal() []byte {
	out := make([]byte, 16+8*len(b.bits))
	binary.BigEndian.PutUint64(out[0:8], b.nbits)
	binary.BigEndian.PutUint64(out[8:16], uint64(b.hashes))
	for i, w := range b.bits {
		binary.BigEndian.PutUint64(out[16+8*i:], w)
	}
	return out
}

func unmarshalTableBloom(raw []byte) (*tableBloom, error) {
	if len(raw) < 16 {
		return nil, fmt.Errorf("kvstore: bloom truncated")
	}
	nbits := binary.BigEndian.Uint64(raw[0:8])
	hashes := int(binary.BigEndian.Uint64(raw[8:16]))
	words := int((nbits + 63) / 64)
	if len(raw) != 16+8*words || hashes < 1 || hashes > 64 {
		return nil, fmt.Errorf("kvstore: bloom corrupt")
	}
	b := &tableBloom{bits: make([]uint64, words), nbits: nbits, hashes: hashes}
	for i := range b.bits {
		b.bits[i] = binary.BigEndian.Uint64(raw[16+8*i:])
	}
	return b, nil
}

// writeTable persists sorted records as a new sstable and opens it.
func writeTable(dir string, id uint64, recs []record) (*sstable, error) {
	path := tablePath(dir, id)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	filter := newTableBloom(len(recs))

	var (
		dataLen int64
		idxBuf  bytes.Buffer
		hdr     [9]byte
	)
	for i, r := range recs {
		if i%indexStride == 0 {
			var klen [4]byte
			binary.BigEndian.PutUint32(klen[:], uint32(len(r.key)))
			idxBuf.Write(klen[:])
			idxBuf.Write(r.key)
			var off [8]byte
			binary.BigEndian.PutUint64(off[:], uint64(dataLen))
			idxBuf.Write(off[:])
		}
		binary.BigEndian.PutUint32(hdr[0:4], uint32(len(r.key)))
		if r.tomb {
			hdr[4] = flagTombstone
		} else {
			hdr[4] = 0
		}
		binary.BigEndian.PutUint32(hdr[5:9], uint32(len(r.value)))
		if _, err := w.Write(hdr[:]); err != nil {
			_ = f.Close()
			return nil, err
		}
		if _, err := w.Write(r.key); err != nil {
			_ = f.Close()
			return nil, err
		}
		if _, err := w.Write(r.value); err != nil {
			_ = f.Close()
			return nil, err
		}
		dataLen += int64(9 + len(r.key) + len(r.value))
		filter.add(r.key)
	}
	bloomRaw := filter.marshal()
	if _, err := w.Write(idxBuf.Bytes()); err != nil {
		_ = f.Close()
		return nil, err
	}
	if _, err := w.Write(bloomRaw); err != nil {
		_ = f.Close()
		return nil, err
	}
	var footer [40]byte
	binary.BigEndian.PutUint64(footer[0:8], uint64(dataLen))
	binary.BigEndian.PutUint64(footer[8:16], uint64(idxBuf.Len()))
	binary.BigEndian.PutUint64(footer[16:24], uint64(len(bloomRaw)))
	binary.BigEndian.PutUint64(footer[24:32], uint64(len(recs)))
	binary.BigEndian.PutUint64(footer[32:40], tableMagic)
	if _, err := w.Write(footer[:]); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	return openTable(dir, id)
}

// openTable maps an existing sstable: footer, sparse index and bloom are
// loaded into memory.
func openTable(dir string, id uint64) (*sstable, error) {
	path := tablePath(dir, id)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if st.Size() < 40 {
		_ = f.Close()
		return nil, fmt.Errorf("kvstore: table %s truncated", path)
	}
	var footer [40]byte
	if _, err := f.ReadAt(footer[:], st.Size()-40); err != nil {
		_ = f.Close()
		return nil, err
	}
	if binary.BigEndian.Uint64(footer[32:40]) != tableMagic {
		_ = f.Close()
		return nil, fmt.Errorf("kvstore: table %s bad magic", path)
	}
	dataLen := int64(binary.BigEndian.Uint64(footer[0:8]))
	idxLen := int64(binary.BigEndian.Uint64(footer[8:16]))
	bloomLen := int64(binary.BigEndian.Uint64(footer[16:24]))
	count := int64(binary.BigEndian.Uint64(footer[24:32]))
	if dataLen+idxLen+bloomLen+40 != st.Size() {
		_ = f.Close()
		return nil, fmt.Errorf("kvstore: table %s sections do not sum to file size", path)
	}
	idxRaw := make([]byte, idxLen)
	if _, err := f.ReadAt(idxRaw, dataLen); err != nil {
		_ = f.Close()
		return nil, err
	}
	bloomRaw := make([]byte, bloomLen)
	if _, err := f.ReadAt(bloomRaw, dataLen+idxLen); err != nil {
		_ = f.Close()
		return nil, err
	}
	filter, err := unmarshalTableBloom(bloomRaw)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	t := &sstable{id: id, path: path, f: f, size: st.Size(), count: count, dataLn: dataLen, filter: filter}
	for off := 0; off < len(idxRaw); {
		if off+4 > len(idxRaw) {
			_ = f.Close()
			return nil, fmt.Errorf("kvstore: table %s index corrupt", path)
		}
		klen := int(binary.BigEndian.Uint32(idxRaw[off:]))
		off += 4
		if off+klen+8 > len(idxRaw) {
			_ = f.Close()
			return nil, fmt.Errorf("kvstore: table %s index corrupt", path)
		}
		key := append([]byte(nil), idxRaw[off:off+klen]...)
		off += klen
		dataOff := int64(binary.BigEndian.Uint64(idxRaw[off:]))
		off += 8
		t.sparse = append(t.sparse, sparseEntry{key: key, offset: dataOff})
	}
	return t, nil
}

// get looks up a key: bloom check, sparse-index binary search, then a
// bounded sequential scan of at most indexStride records.
func (t *sstable) get(key []byte, stats *Stats) (value []byte, deleted, ok bool, err error) {
	if !t.filter.mayContain(key) {
		return nil, false, false, nil
	}
	// Rightmost sparse entry with key ≤ target.
	lo, hi, idx := 0, len(t.sparse)-1, -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.sparse[mid].key, key) <= 0 {
			idx = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if idx < 0 {
		return nil, false, false, nil
	}
	stats.TableReads++
	it := &tableIterator{t: t, off: t.sparse[idx].offset}
	for i := 0; i < indexStride; i++ {
		r, more := it.next()
		if !more {
			break
		}
		c := bytes.Compare(r.key, key)
		if c == 0 {
			return r.value, r.tomb, true, it.err
		}
		if c > 0 {
			break
		}
	}
	return nil, false, false, it.err
}

// tableIterator scans records sequentially from a data offset.
type tableIterator struct {
	t   *sstable
	off int64
	err error
	buf []byte
}

func (t *sstable) iterator() *tableIterator { return &tableIterator{t: t} }

func (it *tableIterator) next() (record, bool) {
	if it.err != nil || it.off >= it.t.dataLn {
		return record{}, false
	}
	var hdr [9]byte
	if _, err := it.t.f.ReadAt(hdr[:], it.off); err != nil {
		it.err = err
		return record{}, false
	}
	klen := int(binary.BigEndian.Uint32(hdr[0:4]))
	tomb := hdr[4]&flagTombstone != 0
	vlen := int(binary.BigEndian.Uint32(hdr[5:9]))
	if klen < 0 || vlen < 0 || it.off+int64(9+klen+vlen) > it.t.dataLn {
		it.err = fmt.Errorf("kvstore: record at %d escapes data section of %s", it.off, it.t.path)
		return record{}, false
	}
	need := klen + vlen
	if cap(it.buf) < need {
		it.buf = make([]byte, need)
	}
	buf := it.buf[:need]
	if _, err := it.t.f.ReadAt(buf, it.off+9); err != nil {
		it.err = err
		return record{}, false
	}
	it.off += int64(9 + klen + vlen)
	rec := record{
		key:  append([]byte(nil), buf[:klen]...),
		tomb: tomb,
	}
	if !tomb {
		rec.value = append([]byte(nil), buf[klen:]...)
	}
	return rec, true
}

func (t *sstable) close() { _ = t.f.Close() }

func (t *sstable) remove() {
	_ = t.f.Close()
	_ = os.Remove(t.path)
}
