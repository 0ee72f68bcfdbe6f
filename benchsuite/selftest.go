package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// selfCheck runs every workload briefly in both modes and checks that each
// prints exactly the metrics BENCHMARK.json names, with their units, and
// verifies every output.
func selfCheck(specPath string, log io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	if len(spec.Workloads) != len(workloads) {
		return fmt.Errorf("%s lists %d workloads, the benchmark has %d", specPath, len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, err := lookupWorkload(sw.Name)
		if err != nil {
			return err
		}
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			list := spec.EndToEnd
			if trace {
				list = spec.PerLayer
			}
			for _, m := range list {
				want[m.Name] = m.Unit
			}
			rep, out, err := runOnce(w, 1, 2, trace, "")
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", w.name, trace, err)
			}
			// A brief run on a busy machine may be refused (503) at the high
			// rate; a wrong answer is never acceptable.
			if out.Attempted == 0 || !out.Correct {
				return fmt.Errorf("%s trace=%v: %d of %d requests failed: %v", w.name, trace, out.Failed-rep.Refused, out.Attempted, rep.Errors)
			}
			var problems []string
			for name, unit := range want {
				got, ok := out.Metrics[name]
				switch {
				case !ok:
					problems = append(problems, "missing "+name)
				case got.Unit != unit:
					problems = append(problems, fmt.Sprintf("%s in %q, want %q", name, got.Unit, unit))
				}
			}
			for name := range out.Metrics {
				if _, ok := want[name]; !ok {
					problems = append(problems, "unlisted "+name)
				}
			}
			if len(problems) > 0 {
				sort.Strings(problems)
				return fmt.Errorf("%s trace=%v: %v", w.name, trace, problems)
			}
			fmt.Fprintf(log, "benchsuite: self-test %s trace=%v: %d metrics, %d requests verified\n", w.name, trace, len(out.Metrics), out.Attempted)
		}
	}
	return nil
}
