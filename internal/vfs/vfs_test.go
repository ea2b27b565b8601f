package vfs

import (
	"errors"
	"io"
	iofs "io/fs"
	"os"
	"testing"
)

func TestMemFSBasics(t *testing.T) {
	m := NewMem()
	if err := m.MkdirAll("db", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := m.Create("db/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("H"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile("db/a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "Hello" {
		t.Fatalf("got %q", got)
	}

	r, err := m.Open("db/a")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if n, err := r.ReadAt(buf, 2); err != nil || n != 3 || string(buf) != "llo" {
		t.Fatalf("ReadAt = %d %q %v", n, buf, err)
	}
	if _, err := r.ReadAt(buf, 4); !errors.Is(err, io.EOF) {
		t.Fatalf("short ReadAt err = %v, want EOF", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := m.Open("db/missing"); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("open missing = %v, want ErrNotExist", err)
	}
	if _, err := m.Stat("db/missing"); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("stat missing = %v, want ErrNotExist", err)
	}

	ents, err := m.ReadDir("db")
	if err != nil || len(ents) != 1 || ents[0].Name() != "a" {
		t.Fatalf("ReadDir = %v %v", ents, err)
	}
}

// An unsynced write is lost at a crash; a synced one survives.
func TestMemFSCrashDropsUnsynced(t *testing.T) {
	m := NewMem()
	mustMkdir(t, m, "db")
	writeSyncedFile(t, m, "db/synced", []byte("durable"))
	mustSyncDir(t, m, "db")

	// Unsynced content on a synced file, plus a whole unsynced file.
	f, err := m.OpenFile("db/synced", os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("DIRTY__"), 0); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if err := m.WriteFile("db/unsynced", []byte("gone"), 0o644); err != nil {
		t.Fatal(err)
	}

	m.Crash()

	got, err := m.ReadFile("db/synced")
	if err != nil || string(got) != "durable" {
		t.Fatalf("synced file after crash = %q %v", got, err)
	}
	if _, err := m.ReadFile("db/unsynced"); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("unsynced file after crash: err = %v, want ErrNotExist", err)
	}
}

// A rename is durable only after the parent directory syncs.
func TestMemFSRenameNeedsDirSync(t *testing.T) {
	for _, syncDir := range []bool{false, true} {
		m := NewMem()
		mustMkdir(t, m, "db")
		writeSyncedFile(t, m, "db/old", []byte("v1"))
		mustSyncDir(t, m, "db")
		writeSyncedFile(t, m, "db/new.tmp", []byte("v2"))
		if err := m.Rename("db/new.tmp", "db/old"); err != nil {
			t.Fatal(err)
		}
		if syncDir {
			mustSyncDir(t, m, "db")
		}
		m.Crash()
		got, err := m.ReadFile("db/old")
		if err != nil {
			t.Fatal(err)
		}
		want := "v1"
		if syncDir {
			want = "v2"
		}
		if string(got) != want {
			t.Fatalf("syncDir=%v: after crash got %q, want %q", syncDir, got, want)
		}
	}
}

// DropDirSyncs makes the rename above silently non-durable even though
// SyncDir reports success — the failure mode the commit-point audit
// protects against.
func TestMemFSDroppedDirSync(t *testing.T) {
	m := NewMem()
	mustMkdir(t, m, "db")
	writeSyncedFile(t, m, "db/old", []byte("v1"))
	mustSyncDir(t, m, "db")
	m.DropDirSyncs(true)
	writeSyncedFile(t, m, "db/new.tmp", []byte("v2"))
	if err := m.Rename("db/new.tmp", "db/old"); err != nil {
		t.Fatal(err)
	}
	mustSyncDir(t, m, "db") // reports success, does nothing
	m.Crash()
	got, err := m.ReadFile("db/old")
	if err != nil || string(got) != "v1" {
		t.Fatalf("after crash with dropped dir syncs got %q %v, want v1", got, err)
	}
}

// Crashing on a write tears it: a prefix may land, and everything
// afterwards fails with ErrCrashed until Crash().
func TestMemFSCrashAtTearsWrite(t *testing.T) {
	m := NewMem()
	mustMkdir(t, m, "db")
	f, err := m.Create("db/a")
	if err != nil {
		t.Fatal(err)
	}
	m.CrashAt(m.OpCount() + 1)
	if _, err := f.Write([]byte("0123456789")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write = %v, want ErrCrashed", err)
	}
	if !m.Crashed() {
		t.Fatal("not crashed")
	}
	if _, err := m.Open("db/a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash open = %v, want ErrCrashed", err)
	}
	m.Crash()
	// The file entry itself was never durable, so it is gone entirely.
	if _, err := m.ReadFile("db/a"); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("after crash: %v, want ErrNotExist", err)
	}
}

func TestMemFSFailAt(t *testing.T) {
	m := NewMem()
	mustMkdir(t, m, "db")
	f, err := m.Create("db/a")
	if err != nil {
		t.Fatal(err)
	}
	m.FailAt(m.OpCount()+1, nil)
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write = %v, want ErrInjected", err)
	}
	// One-shot: the next operation succeeds.
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("second write = %v", err)
	}
}

func TestMemFSRemoveAllAndRecreate(t *testing.T) {
	m := NewMem()
	mustMkdir(t, m, "db/build")
	writeSyncedFile(t, m, "db/build/s0", []byte("spool"))
	mustSyncDir(t, m, "db/build")
	if err := m.RemoveAll("db/build"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stat("db/build/s0"); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("stat removed = %v", err)
	}
	mustMkdir(t, m, "db/build")
	ents, err := m.ReadDir("db/build")
	if err != nil || len(ents) != 0 {
		t.Fatalf("recreated dir = %v %v, want empty", ents, err)
	}
	// MkdirAll re-links a removed ancestor too, not only the leaf.
	mustMkdir(t, m, "db/build/shard-00")
	if err := m.RemoveAll("db/build"); err != nil {
		t.Fatal(err)
	}
	mustMkdir(t, m, "db/build/shard-00")
	if ents, err := m.ReadDir("db/build"); err != nil || len(ents) != 1 {
		t.Fatalf("ancestor of a recreated dir = %v %v, want one entry", ents, err)
	}
}

func TestWriteFileAtomicDurable(t *testing.T) {
	m := NewMem()
	mustMkdir(t, m, "db")
	if err := WriteFileAtomic(m, "db/MANIFEST", []byte("state"), 0o644); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	got, err := m.ReadFile("db/MANIFEST")
	if err != nil || string(got) != "state" {
		t.Fatalf("after crash = %q %v", got, err)
	}
	// Plain WriteFile, by contrast, does not survive.
	if err := m.WriteFile("db/PLAIN", []byte("state"), 0o644); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, err := m.ReadFile("db/PLAIN"); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("plain WriteFile survived crash: %v", err)
	}
}

func TestMemFSFlipByte(t *testing.T) {
	m := NewMem()
	mustMkdir(t, m, "db")
	writeSyncedFile(t, m, "db/a", []byte{0x00, 0x01})
	mustSyncDir(t, m, "db")
	if err := m.FlipByte("db/a", 1); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadFile("db/a")
	if got[1] != 0xFE {
		t.Fatalf("flip: got %x", got)
	}
	m.Crash() // flip persists in the durable image too
	got, err := m.ReadFile("db/a")
	if err != nil || got[1] != 0xFE {
		t.Fatalf("flip after crash: %x %v", got, err)
	}
}

func mustMkdir(t *testing.T, m *MemFS, p string) {
	t.Helper()
	if err := m.MkdirAll(p, 0o755); err != nil {
		t.Fatal(err)
	}
}

func mustSyncDir(t *testing.T, m *MemFS, p string) {
	t.Helper()
	if err := m.SyncDir(p); err != nil {
		t.Fatal(err)
	}
}

func writeSyncedFile(t *testing.T, m *MemFS, p string, data []byte) {
	t.Helper()
	f, err := m.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
