package vfs

import (
	"errors"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// ErrCrashed is returned by every MemFS operation after the armed
// crash point has been reached: the "machine" is down until Crash()
// reverts the filesystem to its durable image and clears the fault.
var ErrCrashed = errors.New("vfs: crashed")

// ErrInjected is the default error for single-operation fault
// injection (FailAt).
var ErrInjected = errors.New("vfs: injected fault")

// MemFS is an in-memory filesystem that models crash consistency: it
// tracks, for every file and directory, both the current state and the
// durable state (what has been fsynced). Faults are injected by global
// operation index — every FS and File method counts as one operation —
// so a sweep can crash a workload at each distinct syscall.
//
// Crash semantics (deterministic, adversarial):
//   - File data becomes durable only on Sync. At a crash, unsynced
//     writes are dropped — except the torn tail of the very write the
//     crash lands on, half of which reaches the durable image (data
//     may hit disk unordered without fsync).
//   - Directory entries (create, rename, remove) become durable only
//     on SyncDir of the parent. At a crash, unsynced entry changes
//     revert: an unsynced rename rolls back, an unsynced remove
//     resurrects the file.
//   - Directories themselves are durable on creation (a modeling
//     simplification; the engine always syncs the directories whose
//     entries it depends on).
//
// All methods are safe for concurrent use.
type MemFS struct {
	mu   sync.Mutex
	dirs map[string]*memDir

	ops     int64
	crashAt int64 // crash when ops reaches this index (0 = disarmed)
	crashed bool
	failAt  int64 // fail exactly this op with failErr (0 = disarmed)
	failErr error

	dropDirSync bool
}

type inode struct {
	cur []byte
	dur []byte
}

type dirent struct {
	dir bool
	ino *inode
}

type memDir struct {
	cur map[string]dirent
	dur map[string]dirent
}

func newMemDir() *memDir {
	return &memDir{cur: map[string]dirent{}, dur: map[string]dirent{}}
}

// NewMem returns an empty in-memory filesystem with no faults armed.
func NewMem() *MemFS {
	m := &MemFS{dirs: map[string]*memDir{}}
	m.dirs["."] = newMemDir()
	m.dirs["/"] = newMemDir()
	return m
}

// CrashAt arms the crash point: the n-th subsequent operation (1-based,
// counted from the filesystem's creation) fails, and every operation
// after it fails with ErrCrashed until Crash is called.
func (m *MemFS) CrashAt(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashAt = n
}

// FailAt arms a single-operation fault: operation n fails with err
// (ErrInjected when nil); later operations succeed normally.
func (m *MemFS) FailAt(n int64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err == nil {
		err = ErrInjected
	}
	m.failAt, m.failErr = n, err
}

// DropDirSyncs makes SyncDir report success without making directory
// entries durable — the "buggy fsync" mode that demonstrates why
// commit points must sync the parent directory.
func (m *MemFS) DropDirSyncs(drop bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dropDirSync = drop
}

// OpCount returns the number of operations performed so far.
func (m *MemFS) OpCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// Crashed reports whether the armed crash point has been reached.
func (m *MemFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// Crash simulates the machine rebooting after a power failure: every
// file and directory reverts to its durable image, armed faults are
// cleared, and the filesystem is usable again.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range m.dirs {
		d.cur = cloneEntries(d.dur)
		for _, ent := range d.cur {
			if ent.ino != nil {
				ent.ino.cur = append([]byte(nil), ent.ino.dur...)
			}
		}
	}
	m.crashed = false
	m.crashAt, m.failAt, m.failErr = 0, 0, nil
}

// FlipByte XOR-flips one byte of a file in both the current and
// durable images — latent media corruption for scrub tests.
func (m *MemFS) FlipByte(path string, off int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ent, err := m.lookupLocked(path)
	if err != nil {
		return err
	}
	if ent.dir || ent.ino == nil {
		return &os.PathError{Op: "flip", Path: path, Err: errors.New("is a directory")}
	}
	if off < 0 || off >= int64(len(ent.ino.cur)) {
		return &os.PathError{Op: "flip", Path: path, Err: errors.New("offset out of range")}
	}
	ent.ino.cur[off] ^= 0xFF
	if off < int64(len(ent.ino.dur)) {
		ent.ino.dur[off] ^= 0xFF
	}
	return nil
}

func cloneEntries(src map[string]dirent) map[string]dirent {
	out := make(map[string]dirent, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

// step counts one operation and applies armed faults. crossed is true
// when this very operation is the armed crash point (its write may
// tear).
func (m *MemFS) stepLocked() (err error, crossed bool) {
	if m.crashed {
		return ErrCrashed, false
	}
	m.ops++
	if m.failAt != 0 && m.ops == m.failAt {
		e := m.failErr
		m.failAt, m.failErr = 0, nil
		return e, false
	}
	if m.crashAt != 0 && m.ops >= m.crashAt {
		m.crashed = true
		return ErrCrashed, true
	}
	return nil, false
}

func norm(p string) string { return filepath.Clean(p) }

func (m *MemFS) parentLocked(p string) (*memDir, string, error) {
	dir, base := filepath.Dir(p), filepath.Base(p)
	d, ok := m.dirs[dir]
	if !ok {
		return nil, "", &os.PathError{Op: "open", Path: p, Err: iofs.ErrNotExist}
	}
	return d, base, nil
}

func (m *MemFS) lookupLocked(p string) (dirent, error) {
	p = norm(p)
	if _, ok := m.dirs[p]; ok {
		// A directory that still has a live entry in its parent (or a
		// root) resolves as a directory.
		if m.entryLiveLocked(p) {
			return dirent{dir: true}, nil
		}
		return dirent{}, &os.PathError{Op: "stat", Path: p, Err: iofs.ErrNotExist}
	}
	d, base, err := m.parentLocked(p)
	if err != nil {
		return dirent{}, err
	}
	ent, ok := d.cur[base]
	if !ok {
		return dirent{}, &os.PathError{Op: "stat", Path: p, Err: iofs.ErrNotExist}
	}
	return ent, nil
}

// entryLiveLocked reports whether directory p is reachable: roots are
// always live; others need a live entry in their parent.
func (m *MemFS) entryLiveLocked(p string) bool {
	if p == "." || p == "/" {
		return true
	}
	d, base, err := m.parentLocked(p)
	if err != nil {
		return false
	}
	ent, ok := d.cur[base]
	return ok && ent.dir
}

// --- FS interface ---

func (m *MemFS) Create(name string) (File, error) {
	return m.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (m *MemFS) Open(name string) (File, error) {
	return m.OpenFile(name, os.O_RDONLY, 0)
}

func (m *MemFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err, _ := m.stepLocked(); err != nil {
		return nil, err
	}
	name = norm(name)
	d, base, err := m.parentLocked(name)
	if err != nil {
		return nil, err
	}
	ent, ok := d.cur[base]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: iofs.ErrNotExist}
	case !ok:
		ent = dirent{ino: &inode{}}
		d.cur[base] = ent
	case ent.dir:
		return nil, &os.PathError{Op: "open", Path: name, Err: errors.New("is a directory")}
	case flag&os.O_TRUNC != 0:
		ent.ino.cur = nil
	}
	return &memHandle{fs: m, name: name, ino: ent.ino}, nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err, _ := m.stepLocked(); err != nil {
		return err
	}
	od, obase, err := m.parentLocked(norm(oldpath))
	if err != nil {
		return err
	}
	ent, ok := od.cur[obase]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: iofs.ErrNotExist}
	}
	nd, nbase, err := m.parentLocked(norm(newpath))
	if err != nil {
		return err
	}
	delete(od.cur, obase)
	nd.cur[nbase] = ent
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err, _ := m.stepLocked(); err != nil {
		return err
	}
	d, base, err := m.parentLocked(norm(name))
	if err != nil {
		return err
	}
	if _, ok := d.cur[base]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: iofs.ErrNotExist}
	}
	delete(d.cur, base)
	return nil
}

func (m *MemFS) RemoveAll(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err, _ := m.stepLocked(); err != nil {
		return err
	}
	path = norm(path)
	d, base, err := m.parentLocked(path)
	if err != nil {
		return nil // parent gone: nothing to remove (os.RemoveAll semantics)
	}
	delete(d.cur, base)
	// Empty the current view of the whole subtree so a re-created
	// directory starts fresh; durable state stays for crash revert.
	prefix := path + string(filepath.Separator)
	for p, sub := range m.dirs {
		if p == path || (len(p) > len(prefix) && p[:len(prefix)] == prefix) {
			sub.cur = map[string]dirent{}
		}
	}
	return nil
}

func (m *MemFS) MkdirAll(path string, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err, _ := m.stepLocked(); err != nil {
		return err
	}
	return m.mkdirAllLocked(norm(path))
}

func (m *MemFS) mkdirAllLocked(p string) error {
	if p == "." || p == "/" {
		return nil
	}
	parent := filepath.Dir(p)
	// A parent RemoveAll unlinked keeps its m.dirs node, so reachability,
	// not presence, decides whether it must be created again.
	if _, ok := m.dirs[parent]; !ok || !m.entryLiveLocked(parent) {
		if err := m.mkdirAllLocked(parent); err != nil {
			return err
		}
	}
	d := m.dirs[parent]
	base := filepath.Base(p)
	if ent, ok := d.cur[base]; ok && !ent.dir {
		return &os.PathError{Op: "mkdir", Path: p, Err: errors.New("not a directory")}
	}
	// Directory creation is modeled as immediately durable.
	ent := dirent{dir: true}
	d.cur[base] = ent
	d.dur[base] = ent
	if _, ok := m.dirs[p]; !ok {
		m.dirs[p] = newMemDir()
	}
	return nil
}

func (m *MemFS) ReadDir(name string) ([]os.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err, _ := m.stepLocked(); err != nil {
		return nil, err
	}
	name = norm(name)
	d, ok := m.dirs[name]
	if !ok || !m.entryLiveLocked(name) {
		return nil, &os.PathError{Op: "readdir", Path: name, Err: iofs.ErrNotExist}
	}
	names := make([]string, 0, len(d.cur))
	for n := range d.cur {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]os.DirEntry, 0, len(names))
	for _, n := range names {
		ent := d.cur[n]
		var size int64
		if ent.ino != nil {
			size = int64(len(ent.ino.cur))
		}
		out = append(out, memDirEntry{name: n, dir: ent.dir, size: size})
	}
	return out, nil
}

func (m *MemFS) Stat(name string) (os.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err, _ := m.stepLocked(); err != nil {
		return nil, err
	}
	ent, err := m.lookupLocked(name)
	if err != nil {
		return nil, err
	}
	var size int64
	if ent.ino != nil {
		size = int64(len(ent.ino.cur))
	}
	return memFileInfo{name: filepath.Base(norm(name)), dir: ent.dir, size: size}, nil
}

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err, _ := m.stepLocked(); err != nil {
		return nil, err
	}
	ent, err := m.lookupLocked(name)
	if err != nil {
		return nil, err
	}
	if ent.dir || ent.ino == nil {
		return nil, &os.PathError{Op: "read", Path: name, Err: errors.New("is a directory")}
	}
	return append([]byte(nil), ent.ino.cur...), nil
}

func (m *MemFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	err, crossed := m.stepLocked()
	if err != nil {
		if crossed {
			// The crash lands mid-write: a torn prefix reaches the
			// current (never the durable) image of a fresh entry.
			if d, base, perr := m.parentLocked(norm(name)); perr == nil {
				ino := &inode{cur: append([]byte(nil), data[:len(data)/2]...)}
				d.cur[base] = dirent{ino: ino}
			}
		}
		return err
	}
	d, base, perr := m.parentLocked(norm(name))
	if perr != nil {
		return perr
	}
	ent, ok := d.cur[base]
	if !ok || ent.ino == nil {
		ent = dirent{ino: &inode{}}
		d.cur[base] = ent
	}
	ent.ino.cur = append([]byte(nil), data...)
	return nil
}

func (m *MemFS) SyncDir(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err, _ := m.stepLocked(); err != nil {
		return err
	}
	if m.dropDirSync {
		return nil
	}
	name = norm(name)
	d, ok := m.dirs[name]
	if !ok {
		return &os.PathError{Op: "syncdir", Path: name, Err: iofs.ErrNotExist}
	}
	d.dur = cloneEntries(d.cur)
	return nil
}

// --- file handle ---

type memHandle struct {
	fs   *MemFS
	name string
	ino  *inode
	off  int64 // sequential write offset
}

func (f *memHandle) Name() string { return f.name }

func (f *memHandle) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err, _ := f.fs.stepLocked(); err != nil {
		return 0, err
	}
	if off < 0 || off >= int64(len(f.ino.cur)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.cur[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memHandle) writeAtLocked(p []byte, off int64, alsoDurable bool) {
	end := off + int64(len(p))
	if int64(len(f.ino.cur)) < end {
		grown := make([]byte, end)
		copy(grown, f.ino.cur)
		f.ino.cur = grown
	}
	copy(f.ino.cur[off:], p)
	if alsoDurable {
		if int64(len(f.ino.dur)) < end {
			grown := make([]byte, end)
			copy(grown, f.ino.dur)
			f.ino.dur = grown
		}
		copy(f.ino.dur[off:], p)
	}
}

func (f *memHandle) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	err, crossed := f.fs.stepLocked()
	if err != nil {
		if crossed && len(p) > 0 {
			// Torn write: half the buffer may land — in the durable
			// image too, since unfsynced data can hit disk unordered.
			f.writeAtLocked(p[:len(p)/2], off, true)
		}
		return 0, err
	}
	f.writeAtLocked(p, off, false)
	return len(p), nil
}

func (f *memHandle) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	err, crossed := f.fs.stepLocked()
	if err != nil {
		if crossed && len(p) > 0 {
			f.writeAtLocked(p[:len(p)/2], f.off, true)
		}
		return 0, err
	}
	f.writeAtLocked(p, f.off, false)
	f.off += int64(len(p))
	return len(p), nil
}

func (f *memHandle) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err, _ := f.fs.stepLocked(); err != nil {
		return err
	}
	if int64(len(f.ino.cur)) >= size {
		f.ino.cur = f.ino.cur[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, f.ino.cur)
		f.ino.cur = grown
	}
	if f.off > size {
		f.off = size
	}
	return nil
}

func (f *memHandle) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err, _ := f.fs.stepLocked(); err != nil {
		return err
	}
	f.ino.dur = append([]byte(nil), f.ino.cur...)
	return nil
}

func (f *memHandle) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err, _ := f.fs.stepLocked(); err != nil {
		return err
	}
	return nil
}

func (f *memHandle) Stat() (os.FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err, _ := f.fs.stepLocked(); err != nil {
		return nil, err
	}
	return memFileInfo{name: filepath.Base(f.name), size: int64(len(f.ino.cur))}, nil
}

// --- metadata types ---

type memFileInfo struct {
	name string
	dir  bool
	size int64
}

func (i memFileInfo) Name() string { return i.name }
func (i memFileInfo) Size() int64  { return i.size }
func (i memFileInfo) Mode() iofs.FileMode {
	if i.dir {
		return iofs.ModeDir | 0o755
	}
	return 0o644
}
func (i memFileInfo) ModTime() time.Time { return time.Time{} }
func (i memFileInfo) IsDir() bool        { return i.dir }
func (i memFileInfo) Sys() any           { return nil }

type memDirEntry struct {
	name string
	dir  bool
	size int64
}

func (e memDirEntry) Name() string { return e.name }
func (e memDirEntry) IsDir() bool  { return e.dir }
func (e memDirEntry) Type() iofs.FileMode {
	if e.dir {
		return iofs.ModeDir
	}
	return 0
}
func (e memDirEntry) Info() (iofs.FileInfo, error) {
	return memFileInfo{name: e.name, dir: e.dir, size: e.size}, nil
}
