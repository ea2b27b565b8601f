// Command benchmark is the COLE benchmark: four workloads that each set a
// store up from a seed, drive it in a closed loop through cole.DB, check
// every answer against an oracle, and report end-to-end metrics (untraced)
// or per-layer metrics (traced). BENCHMARK.json at the repository root
// describes it; README.md in this directory explains every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	out      string
	repeat   int
	tmp      string
	traceDir string
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload to run (default: all): ingest, point_read, prov, node_mixed")
	flag.Int64Var(&c.seed, "seed", 42, "seed of the generated inputs")
	flag.Float64Var(&c.seconds, "seconds", defaultSeconds, "length of the measured work: operation counts are fixed rates times this")
	flag.IntVar(&trace, "trace", 0, "1: the traced run, reporting per-layer metrics; 0: end-to-end metrics")
	flag.BoolVar(&c.smoke, "smoke", false, "1/100 of the preload and operation counts")
	flag.StringVar(&c.out, "out", "", "write the full result file here")
	flag.IntVar(&c.repeat, "repeat", 1, "run the whole set this many times and report median, quartiles and min")
	flag.StringVar(&c.tmp, "tmp", ".bench_build/data", "scratch directory for store data")
	flag.StringVar(&c.traceDir, "trace-out", "", "directory the traced run writes trace-<workload>.jsonl to (default: -tmp)")
	compare := flag.Bool("compare", false, "compare two result files given as arguments")
	flag.Parse()
	if *compare {
		os.Exit(compareFiles(flag.Args()))
	}
	c.traced = trace != 0
	if err := execute(c); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func execute(c config) error {
	// Never more than two load goroutines, so never more than two
	// processors, whatever the host has.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if err := os.MkdirAll(c.tmp, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(c.tmp, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	todo := specs
	if c.workload != "" {
		s, err := specByName(c.workload)
		if err != nil {
			return err
		}
		todo = []spec{s}
	}
	o := options{seed: c.seed, seconds: c.seconds, divisor: 1, tmp: tmp}
	if c.smoke {
		o.divisor = 100
	}
	runOne := runWorkload
	if c.traced {
		runOne = runTraced
		if c.traceDir == "" {
			c.traceDir = c.tmp
		}
	}
	file := resultFile{Fingerprint: fingerprint(tmp), Seed: c.seed, Seconds: c.seconds, Smoke: c.smoke}
	for rep := 0; rep < max(c.repeat, 1); rep++ {
		for _, s := range todo {
			if c.traced {
				o.traceOut = filepath.Join(c.traceDir, "trace-"+s.name+".jsonl")
			}
			res, err := runOne(s, o)
			if err != nil {
				return err
			}
			file.Runs = append(file.Runs, res)
			printResult(res)
		}
	}
	file.summarise()
	if c.repeat > 1 {
		file.printSummary()
	}
	if c.out != "" {
		if err := file.write(c.out); err != nil {
			return err
		}
	}
	// The last line of standard output is the result of the last run, in
	// the form the driver reads.
	last := file.Runs[len(file.Runs)-1]
	line, err := json.Marshal(map[string]any{
		"correct":   last.Correct,
		"attempted": last.Attempted,
		"failed":    last.Failed,
		"metrics":   last.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
