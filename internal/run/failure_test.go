package run_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"cole/internal/run"
	"cole/internal/types"
	"cole/internal/vfs"
)

const failDir = "runs"

// memParams is params on a fresh in-memory filesystem holding failDir.
func memParams(t *testing.T, params run.Params) (run.Params, *vfs.MemFS) {
	t.Helper()
	fs := vfs.NewMem()
	if err := fs.MkdirAll(failDir, 0o755); err != nil {
		t.Fatal(err)
	}
	params.FS = fs
	return params, fs
}

// checkCleanFailure holds a failed build to its contract: it returned an
// error, left no file behind, and every goroutine it started has exited.
func checkCleanFailure(t *testing.T, fs *vfs.MemFS, goroutines int, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("the build succeeded")
	}
	ents, rerr := fs.ReadDir(failDir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range ents {
		t.Errorf("failed build left %s behind (%v)", e.Name(), err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed build, %d before it (%v)", runtime.NumGoroutine(), goroutines, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// failingIterator yields the first n entries of a slice, then stops with
// err: a source whose read failed mid-stream.
type failingIterator struct {
	inner run.Iterator
	n     int
	err   error
}

func (f *failingIterator) Next() (types.Entry, bool) {
	if f.n == 0 {
		return types.Entry{}, false
	}
	f.n--
	return f.inner.Next()
}

func (f *failingIterator) Err() error {
	if f.n == 0 {
		return f.err
	}
	return nil
}

// TestBuildFailAtEveryOp injects an I/O error (MemFS.FailAt) at every
// filesystem operation of a flush-shaped build: every value, index and
// Merkle write and fsync, the metadata commit and the open behind it.
// With 256-byte pages the Merkle writer flushes mid-stream, so its
// write errors meet the entry loop still running. Each build must return
// the injected error, remove every file it created and stop its helper
// goroutines.
func TestBuildFailAtEveryOp(t *testing.T) {
	es := flushEntries(3, 4096)
	for _, pageSize := range []int{0, 256} {
		t.Run(fmt.Sprintf("page=%d", pageSize), func(t *testing.T) {
			params, fs := memParams(t, run.Params{Fanout: 4, PageSize: pageSize})
			before := fs.OpCount()
			r, err := run.Build(failDir, 1, int64(len(es)), params, run.NewSliceIterator(es))
			if err != nil {
				t.Fatal(err)
			}
			ops := fs.OpCount() - before
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d operations swept", ops)
			for n := int64(1); n <= ops; n++ {
				params, fs := memParams(t, params)
				g := runtime.NumGoroutine()
				fs.FailAt(fs.OpCount()+n, nil)
				_, err := run.Build(failDir, 1, int64(len(es)), params, run.NewSliceIterator(es))
				if err != nil && !errors.Is(err, vfs.ErrInjected) {
					t.Fatalf("op %d of %d: %v, want the injected error", n, ops, err)
				}
				checkCleanFailure(t, fs, g, err)
			}
		})
	}
}

// TestBuildSourceFailures covers the entry loop's own failures with the
// Merkle stage running, for a slice source (leaves hashed by the stage)
// and a merge of runs (leaf hashes passed through): a source that dies
// mid-stream must fail the build with its own error, and one that yields
// too many or too few entries with a count error.
func TestBuildSourceFailures(t *testing.T) {
	es := flushEntries(5, 4096)
	errSource := errors.New("source read failed")
	sources := map[string]func(t *testing.T, params run.Params) run.Iterator{
		"slice": func(*testing.T, run.Params) run.Iterator { return run.NewSliceIterator(es) },
		"merge": func(t *testing.T, params run.Params) run.Iterator {
			if err := params.FS.MkdirAll("sources", 0o755); err != nil {
				t.Fatal(err)
			}
			var rs []*run.Run
			for k, part := range [][]types.Entry{es[:2000], es[2000:]} {
				r, err := run.Build("sources", uint64(k), int64(len(part)), params, run.NewSliceIterator(part))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = r.Close() })
				rs = append(rs, r)
			}
			return run.MergeRuns(rs)
		},
	}
	for name, open := range sources {
		for _, c := range []struct {
			name  string
			count int64
			wrap  func(run.Iterator) run.Iterator
			want  string
		}{
			{"dies", int64(len(es)), func(it run.Iterator) run.Iterator {
				return &failingIterator{inner: it, n: 1000, err: errSource}
			}, errSource.Error()},
			{"too-many", int64(len(es) - 1), nil, "yielded more than"},
			{"too-few", int64(len(es) + 1), nil, "expected"},
		} {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				params, fs := memParams(t, run.Params{Fanout: 4, PageSize: 256})
				src := open(t, params)
				if c.wrap != nil {
					src = c.wrap(src)
				}
				g := runtime.NumGoroutine()
				_, err := run.Build(failDir, 1, c.count, params, src)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("build returned %v, want an error containing %q", err, c.want)
				}
				checkCleanFailure(t, fs, g, err)
			})
		}
	}
}
