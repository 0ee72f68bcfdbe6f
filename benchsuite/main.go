// Command benchsuite is the repository benchmark: it builds the
// decompilation service in-process, drives its HTTP handler with seeded
// workloads, verifies every response, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a traced replay) as one
// JSON line. See README.md for the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash benchsuite/run.sh --workload hot-snippets --seed 1 --seconds 36 --trace 0
//	bash benchsuite/run.sh --self-test
//	bash benchsuite/run.sh --record-digests   # on the commit that defines the references
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// host describes the machine a run measured.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: hot-snippets, unique-sources or study-runs")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 36, "measured time of the run")
	trace := fs.Int("trace", 0, "1 = traced replay reporting per-layer metrics, 0 = end-to-end metrics")
	spanDir := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	record := fs.Bool("record-digests", false, "record the reference digests into benchsuite/digests (of --workload only, if given)")
	selfTest := fs.Bool("self-test", false, "run every workload briefly in both modes and check the metric names and units against BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// One process, all cores: pin GOMAXPROCS to the CPU count and record it.
	runtime.GOMAXPROCS(runtime.NumCPU())

	switch {
	case *record:
		if *name != "" {
			if _, err := lookupWorkload(*name); err != nil {
				fmt.Fprintf(stderr, "benchsuite: %v\n", err)
				return 2
			}
		}
		if err := recordDigests("benchsuite", *name, stderr); err != nil {
			fmt.Fprintf(stderr, "benchsuite: %v\n", err)
			return 1
		}
		return 0
	case *selfTest:
		if err := selfCheck("BENCHMARK.json", stderr); err != nil {
			fmt.Fprintf(stderr, "benchsuite: self-test: %v\n", err)
			return 1
		}
		fmt.Fprintln(stderr, "benchsuite: self-test passed")
		return 0
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "benchsuite: %v\n", err)
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchsuite: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	rep, out, err := runOnce(w, *seed, *seconds, *trace == 1, *spanDir)
	if err != nil {
		fmt.Fprintf(stderr, "benchsuite: %s: %v\n", w.name, err)
		return 1
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(stderr, "benchsuite: %s: %s\n", w.name, e)
	}
	detail, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "benchsuite: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(detail))
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "benchsuite: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runOnce runs one workload in one mode.
func runOnce(w *workload, seed int64, seconds float64, trace bool, spanDir string) (*report, *outcome, error) {
	rep := &report{Workload: w.name, Seed: seed, Trace: trace, Host: hostInfo()}
	var (
		out *outcome
		err error
	)
	if trace {
		out, err = traced(w, seed, seconds, spanDir, rep)
	} else {
		out, err = measure(w, seed, seconds, rep)
	}
	return rep, out, err
}
