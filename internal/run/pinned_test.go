package run_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"cole/internal/core"
	"cole/internal/run"
	"cole/internal/types"
)

// fileSums is the hex SHA-256 of each of a run's four files, by extension.
func fileSums(t *testing.T, dir string, id uint64) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, name := range run.Files(id) {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		out[filepath.Ext(name)] = hex.EncodeToString(sum[:])
	}
	return out
}

func checkSums(t *testing.T, got, want map[string]string) {
	t.Helper()
	for ext, w := range want {
		if got[ext] != w {
			t.Errorf("%s file sha256 %s, pinned %s", ext, got[ext], w)
		}
	}
}

// TestRunFilesPinned holds the run builder and the engine to bytes
// recorded by an earlier build of this code, not to another path of the
// same binary: every other golden test compares two builds made by the
// code under test, so a change that moved a learned-model coordinate by
// one ulp, or any other byte, on every path at once would pass them all.
// The constants change only with a deliberate on-disk format change.
func TestRunFilesPinned(t *testing.T) {
	params := run.Params{Fanout: 4}

	t.Run("flush", func(t *testing.T) {
		dir := t.TempDir()
		es := flushEntries(1, 4096)
		r, err := run.Build(dir, 1, int64(len(es)), params, run.NewSliceIterator(es))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		checkSums(t, fileSums(t, dir, 1), map[string]string{
			".val": "b4b4a8a4fee38f81bd312372f80b4edfb06535bf2ba256d095920d6f046a88e0",
			".idx": "54e4584133cded3dbf0a7cbe06f09ea0b5ffd068da689435cde5806b26315e42",
			".mrk": "e7308de5a44a2401f375856b48e43a54858739b0d6a3efd59a82a2798b3451a2",
			".met": "fdbc0511734df571ba99542d52f10e8b83154b4d3aa653ea9310bf4c06bfb908",
		})
	})

	t.Run("merge4", func(t *testing.T) {
		dir := t.TempDir()
		var sources []*run.Run
		var total int64
		for k := 0; k < 4; k++ {
			es := flushEntries(int64(10+k), 4096)
			r, err := run.Build(dir, uint64(k+1), int64(len(es)), params, run.NewSliceIterator(es))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			sources = append(sources, r)
			total += int64(len(es))
		}
		r, err := run.Build(dir, 9, total, params, run.MergeRuns(sources))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		checkSums(t, fileSums(t, dir, 9), map[string]string{
			".val": "2e6d8883ffa2c0163888b2b32a6e43da3ec34e90808650937d6c6f79e6cb1bd9",
			".idx": "bbe14732e899a3066d384e8452706967206cf5ebe62b1416f64685b25fa7d9ea",
			".mrk": "de4ed6e079b704c80144159f6190dac58b94ee8c5be4942ea119b5930ddac599",
			".met": "90f097db6ae1510368b185af8fdd100d75f486818a21fa52ffbe8a2d69d39e56",
		})
	})

	// merge-versions is a merge whose sources repeat addresses, so most
	// of its filter inserts are AddRepeat, and whose same-address groups
	// (7 versions, against 256-entry hand-offs to the Merkle helper)
	// straddle every hand-off boundary but the multiples of 7·256.
	t.Run("merge-versions", func(t *testing.T) {
		dir := t.TempDir()
		const nAddrs, versions, ways = 1000, 7, 4
		var sources []*run.Run
		for k, es := range versionedSources(nAddrs, versions, ways) {
			r, err := run.Build(dir, uint64(k+1), int64(len(es)), params, run.NewSliceIterator(es))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			sources = append(sources, r)
		}
		r, err := run.Build(dir, 9, nAddrs*versions, params, run.MergeRuns(sources))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		checkSums(t, fileSums(t, dir, 9), map[string]string{
			".val": "87fb41292423eba30e488f39770cf63f94e3e457560c58ba49956c85126202b2",
			".idx": "f06591897290855c5e0ef158155453ac502da73fb5fe3241e3c029fd658daf59",
			".mrk": "f3bab7d38ce2bde0dfee18d0feeec83f10c3ffc35bb97a39a589c8d4f35b98fe",
			".met": "25a1523e7babc48878aa180f309efa5c472791d26b9db894ada087c72d6f241b",
		})
	})

	t.Run("engine", func(t *testing.T) {
		e, err := core.OpenShared(core.Options{Dir: t.TempDir(), MemCapacity: 128}, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		rng := rand.New(rand.NewSource(60))
		var root types.Hash
		for h := uint64(1); h <= 60; h++ {
			if err := e.BeginBlock(h); err != nil {
				t.Fatal(err)
			}
			ups := make([]types.Update, 40)
			for i := range ups {
				ups[i] = types.Update{
					Addr:  types.AddressFromUint64(uint64(rng.Intn(500))),
					Value: types.ValueFromUint64(rng.Uint64()),
				}
			}
			if err := e.PutBatch(ups); err != nil {
				t.Fatal(err)
			}
			if root, err = e.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		st := e.Stats()
		if st.Flushes == 0 || st.Merges == 0 {
			t.Fatalf("workload ran %d flushes and %d merges; it must run both", st.Flushes, st.Merges)
		}
		if got, want := root.String(), "3a63f231d138cefb0e3b4ff55493fd8caee0813aa76f1c3e5ce060df17097140"; got != want {
			t.Errorf("Hstate after 60 blocks %s, pinned %s", got, want)
		}
	})
}
