package main

import (
	"fmt"
	"os"
	"slices"
)

// exactWorkloads have one writer and no timers, so their final state and
// write-side counters repeat exactly for a given seed and -seconds.
var exactWorkloads = map[string]bool{"ingest": true, "point_read": true, "prov": true}

// compareFiles prints, per workload and end-to-end metric, both values,
// the change with its base, and a verdict by the metric's bound:
//
//	ok          the second file is not worse than the first by more than the bound
//	regressed   it is, and both files' run-to-run spread is within the bound
//	unresolved  the spread of one of them is wider than the bound, so the
//	            difference cannot be told from noise
//
// It returns the exit code: 1 on a regressed row, on a higher share of
// failed operations, or when a workload that repeats exactly ended on a
// different digest or counters; 2 when the files cannot be read.
func compareFiles(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
		return 2
	}
	a, errA := readResultFile(args[0])
	b, errB := readResultFile(args[1])
	if errA != nil || errB != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", errA, errB)
		return 2
	}
	a.summarise()
	b.summarise()

	for _, k := range sortedKeys(a.Fingerprint) {
		if a.Fingerprint[k] != b.Fingerprint[k] && k != "vfs.fsync_us" {
			fmt.Printf("WARNING: fingerprints differ in %s: %q vs %q\n", k, a.Fingerprint[k], b.Fingerprint[k])
		}
	}
	sameInputs := a.Seed == b.Seed && a.Seconds == b.Seconds && a.Smoke == b.Smoke
	if !sameInputs {
		fmt.Printf("WARNING: inputs differ (seed %d/%d, seconds %g/%g, smoke %v/%v): digests and counters are not compared\n",
			a.Seed, b.Seed, a.Seconds, b.Seconds, a.Smoke, b.Smoke)
	}

	code := 0
	fmt.Printf("%-11s %-24s %14s %14s %9s  %-10s %s\n", "workload", "metric", args[0], args[1], "change", "verdict", "spread a/b (bound)")
	for _, s := range specs {
		sa, sb := a.Summary[s.name], b.Summary[s.name]
		if sa == nil || sb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, okA := sa[d.name]
			mb, okB := sb[d.name]
			if !okA || !okB {
				continue
			}
			// worse is how much the second file is worse than the first,
			// as a share of the first.
			worse := ratio(mb.Median-ma.Median, ma.Median)
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case ma.spread() > d.bound || mb.spread() > d.bound:
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Printf("%-11s %-24s %14.4f %14.4f %+8.2f%%  %-10s %.1f%%/%.1f%% (%.0f%%) %s\n", s.name, d.name,
				ma.Median, mb.Median, ratio(mb.Median-ma.Median, ma.Median)*100, verdict,
				ma.spread()*100, mb.spread()*100, d.bound*100, d.unit)
		}
		ra, rb := firstRun(a, s.name), firstRun(b, s.name)
		if fa, fb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted)); fb > fa {
			fmt.Printf("%-11s FAILED OPERATIONS ROSE: %d of %d, was %d of %d\n", s.name, rb.Failed, rb.Attempted, ra.Failed, ra.Attempted)
			code = 1
		}
		if sameInputs && exactWorkloads[s.name] {
			if ra.RootDigest != rb.RootDigest {
				fmt.Printf("%-11s ROOT DIGEST DIFFERS: %s vs %s\n", s.name, ra.RootDigest, rb.RootDigest)
				code = 1
			}
			for _, k := range sortedKeys(ra.Exact) {
				if ra.Exact[k] != rb.Exact[k] {
					fmt.Printf("%-11s EXACT COUNTER DIFFERS: %s %v vs %v\n", s.name, k, ra.Exact[k], rb.Exact[k])
					code = 1
				}
			}
		}
	}
	return code
}

func firstRun(f *resultFile, workload string) *result {
	for _, r := range f.Runs {
		if r.Workload == workload {
			return r
		}
	}
	return &result{}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
