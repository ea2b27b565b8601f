package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// flushPolicy is the durability the store is run with: the engine's
// default, stated in every result file because a cheaper policy would make
// every write number incomparable.
const flushPolicy = "default: every run and manifest file is fsynced, and its directory too, when it is renamed into place"

// resultFile is what -out writes: where and how the numbers were taken,
// every run made, and per workload and metric the spread over the runs.
type resultFile struct {
	Fingerprint map[string]string `json:"fingerprint"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Smoke       bool              `json:"smoke"`
	// Summary is keyed by workload, then metric.
	Summary map[string]map[string]summary `json:"summary"`
	Runs    []*result                     `json:"runs"`
}

// summary is a metric's spread over the runs of a result file.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does, which is what the driver uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	m := len(s)
	if m < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		j = min(max(j, 1), m-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func (f *resultFile) summarise() {
	f.Summary = map[string]map[string]summary{}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range f.Runs {
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	for w, ms := range values {
		f.Summary[w] = map[string]summary{}
		for name, v := range ms {
			q1, q3 := quartiles(v)
			s := summary{Unit: units[name], N: len(v), Median: median(v), Q1: q1, Q3: q3, Min: v[0], Max: v[0]}
			for _, x := range v {
				s.Min, s.Max = min(s.Min, x), max(s.Max, x)
			}
			f.Summary[w][name] = s
		}
	}
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// fingerprint records the environment a result was taken in, so that two
// result files from different places are not diffed silently.
func fingerprint(tmp string) map[string]string {
	return map[string]string{
		"commit":       commit(),
		"go":           runtime.Version(),
		"nproc":        strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":   strconv.Itoa(runtime.GOMAXPROCS(0)),
		"scratch_fs":   fsType(tmp),
		"flush_policy": flushPolicy,
		"vfs.fsync_us": strconv.FormatFloat(fsyncUs(tmp), 'f', 1, 64),
	}
}

// commit is the revision the binary was built from, when the toolchain
// could tell (a checkout that is not a git repository cannot).
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// fsyncUs is the median cost of appending a page to a file in dir and
// fsyncing it: the host's price for the flush policy.
func fsyncUs(dir string) float64 {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	page := make([]byte, 4096)
	var us []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		if _, err := f.Write(page); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us)
}

// printResult prints every metric of a run by name, with its unit and,
// for an untraced run, the per-round values the median was taken over.
func printResult(r *result) {
	kind := "end-to-end (untraced)"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Printf("workload %s · seed %d · seconds %g · %s\n", r.Workload, r.Seed, r.Seconds, kind)
	fmt.Printf("  ops_attempted %d  ops_failed %d  root_digest %s\n", r.Attempted, r.Failed, r.RootDigest)
	for _, n := range sortedKeys(r.Metrics) {
		fmt.Printf("  %-30s %16.4f %-6s", n, r.Metrics[n].Value, r.Metrics[n].Unit)
		if v, ok := r.Rounds[n]; ok {
			fmt.Printf("  rounds %.4g", v)
		}
		fmt.Println()
	}
	for _, n := range []string{"commit", "get", "prov"} {
		if t, ok := r.Tails[n]; ok {
			fmt.Printf("  %-30s %16.4f us      p%g of %d samples\n", n+" tail", t.Us, t.Percentile, t.Samples)
		}
	}
	for _, n := range []string{"phase_write_s", "phase_get_s", "phase_prov_s"} {
		if v, ok := r.Rounds[n]; ok {
			fmt.Printf("  %-30s rounds %.3g\n", n, v)
		}
	}
	for _, f := range r.Failures {
		fmt.Println("  FAILURE:", f)
	}
}

// printSummary prints, per workload and metric, the spread over the runs
// of a -repeat: median, quartiles, min, and (Q3-Q1)/median.
func (f *resultFile) printSummary() {
	for _, s := range specs {
		ms, ok := f.Summary[s.name]
		if !ok {
			continue
		}
		fmt.Printf("summary %s · %d runs\n", s.name, ms[sortedKeys(ms)[0]].N)
		fmt.Printf("  %-30s %16s %16s %16s %16s %8s\n", "metric", "median", "q1", "q3", "min", "spread")
		for _, n := range sortedKeys(ms) {
			m := ms[n]
			fmt.Printf("  %-30s %16.4f %16.4f %16.4f %16.4f %7.2f%% %s\n", n, m.Median, m.Q1, m.Q3, m.Min, m.spread()*100, m.Unit)
		}
	}
}
