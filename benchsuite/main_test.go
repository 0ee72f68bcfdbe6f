package main

import (
	"io"
	"math"
	"testing"
	"time"
)

// TestSelfCheck is the benchmark's short mode: every workload runs briefly
// in both modes and must print exactly the metrics BENCHMARK.json names,
// with their units, and verify its outputs.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short mode")
	}
	if err := selfCheck("../BENCHMARK.json", io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRecordedPools checks that every workload's recorded digest pool
// loads and matches its pool size.
func TestRecordedPools(t *testing.T) {
	for _, w := range workloads {
		if _, err := newOracle(w); err != nil {
			t.Error(err)
		}
	}
}

// TestOracleChecks feeds the generator-knowledge checks hand-made
// responses.
func TestOracleChecks(t *testing.T) {
	dec := &request{endpoint: "decompile", funcs: []string{"f_a", "g_b"}}
	good := `{"output": "int __fastcall f_a(int a1) {\n  return a1;\n}\n\n__int64 *__fastcall g_b() {\n  return 0LL;\n}\n"}`
	if err := checkResponse(dec, 200, []byte(good)); err != nil {
		t.Errorf("two-function output rejected: %v", err)
	}
	one := `{"output": "int __fastcall f_a(int a1) {\n  return a1;\n}\n"}`
	if checkResponse(dec, 200, []byte(one)) == nil {
		t.Error("output missing a function accepted")
	}
	if checkResponse(dec, 503, []byte(good)) == nil {
		t.Error("503 accepted")
	}
	lint := &request{endpoint: "lint", funcs: []string{"f_a"}}
	if err := checkResponse(lint, 200, []byte(`{"diags": [{"check": "lint.dead-store", "severity": "warn"}], "covariates": {"f_a": {}}}`)); err != nil {
		t.Errorf("lint warning rejected: %v", err)
	}
	if checkResponse(lint, 200, []byte(`{"diags": [{"check": "verify.branch-target", "severity": "error"}], "covariates": {"f_a": {}}}`)) == nil {
		t.Error("verifier error accepted")
	}
	ann := &request{endpoint: "annotate", snippet: "BAPL", level: 0}
	names := `{"output": "s str n len buf", "renames": [{"new_name": "s"}, {"new_name": "str"}, {"new_name": "n"}, {"new_name": "len"}, {"new_name": "buf"}]}`
	if err := checkResponse(ann, 200, []byte(names)); err != nil {
		t.Errorf("paper names rejected: %v", err)
	}
	if checkResponse(ann, 200, []byte(`{"output": "s str n len", "renames": [{"new_name": "s"}, {"new_name": "str"}, {"new_name": "n"}, {"new_name": "len"}]}`)) == nil {
		t.Error("annotate missing a DIRTY name accepted")
	}
}

// TestQuantiles checks the nearest-rank quantile, that a failure sorts
// above every answer, the Harrell-Davis estimates and the throughput.
func TestQuantiles(t *testing.T) {
	p := &phase{}
	for i := 1; i <= 2000; i++ {
		p.samples = append(p.samples, sample{ok: true, latency: time.Duration(i) * time.Millisecond})
	}
	if got := p.quantile(0.99); got != 1980 {
		t.Errorf("p99 of 1..2000 ms = %v, want 1980", got)
	}
	if got := harrellDavis(p.latencies(), 0.5); math.Abs(got-1000.5) > 0.5 {
		t.Errorf("Harrell-Davis median of 1..2000 ms = %v, want 1000.5", got)
	}
	if got := harrellDavis(p.latencies(), 0.9); math.Abs(got-1800.5) > 2 {
		t.Errorf("Harrell-Davis p90 of 1..2000 ms = %v, want about 1800.5", got)
	}
	// Rounds of at least minRoundSamples are estimated one by one and the
	// median taken: a slow round does not move it.
	var rounds []*phase
	for r := 0; r < 3; r++ {
		rp := &phase{}
		for i := 1; i <= minRoundSamples; i++ {
			ms := i
			if r == 2 {
				ms *= 100
			}
			rp.samples = append(rp.samples, sample{ok: true, latency: time.Duration(ms) * time.Millisecond})
		}
		rounds = append(rounds, rp)
	}
	if got := merge("x", rounds).estimate(0.5); math.Abs(got-32.5) > 0.5 {
		t.Errorf("median over rounds = %v, want about 32.5", got)
	}
	// Throughput counts answers within the phase up to the last of them:
	// ten answers by 1 s of a 1.2 s phase are 10/s, not 8.33/s.
	tp := &phase{start: time.Unix(0, 0), dur: 1200 * time.Millisecond}
	for i := 1; i <= 10; i++ {
		tp.samples = append(tp.samples, sample{ok: true, end: tp.start.Add(time.Duration(i) * 100 * time.Millisecond)})
	}
	tp.samples = append(tp.samples, sample{ok: true, end: tp.start.Add(1300 * time.Millisecond)})
	if got := tp.throughput(); math.Abs(got-10) > 1e-9 {
		t.Errorf("throughput = %v, want 10", got)
	}
	p.samples[0].ok = false
	if got := p.quantile(1); got < 1e300 {
		t.Errorf("max with a failure = %v, want the failure to sort last", got)
	}
}
