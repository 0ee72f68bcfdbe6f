package main

import (
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// digests holds the reference digests recorded on the commit that defined
// the benchmark: one 8-byte digest per pool entry, in pool order. They
// stay valid because the service promises byte-identical output for equal
// requests at any worker count.
//
//go:embed digests
var digests embed.FS

// digestOf binds a response to its request: a changed generator and a
// changed response both show as a mismatch.
func digestOf(r *request, body []byte) uint64 {
	h := sha256.New()
	h.Write([]byte(r.endpoint))
	h.Write([]byte{0})
	h.Write(r.body)
	h.Write([]byte{0})
	h.Write(body)
	return binary.BigEndian.Uint64(h.Sum(nil))
}

func loadDigests(w *workload) ([]uint64, error) {
	raw, err := digests.ReadFile("digests/" + w.name + ".bin")
	if err != nil {
		return nil, fmt.Errorf("%s: no recorded digests (record them with -record-digests): %w", w.name, err)
	}
	if len(raw) != 8*w.poolSize {
		return nil, fmt.Errorf("%s: %d digest bytes recorded, want %d", w.name, len(raw), 8*w.poolSize)
	}
	out := make([]uint64, w.poolSize)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(raw[8*i:])
	}
	return out, nil
}

// writeDigests stores a recorded pool under dir/digests.
func writeDigests(dir string, w *workload, ds []uint64) error {
	raw := make([]byte, 8*len(ds))
	for i, d := range ds {
		binary.BigEndian.PutUint64(raw[8*i:], d)
	}
	return os.WriteFile(filepath.Join(dir, "digests", w.name+".bin"), raw, 0o644)
}

// oracle verifies every response against the reference digest recorded
// for its pool entry. The generator-knowledge checks (checkResponse) ran on
// every reference when the digests were recorded, so a response whose
// digest matches is byte-identical to a reference that passed them; the
// timed path therefore only hashes the body, and the set-up requests are
// checked in full as well.
type oracle struct {
	want []uint64

	mu        sync.Mutex
	attempted int
	failed    int
	refused   int // failures that were 503 refusals
	msgs      []string
}

func newOracle(w *workload) (*oracle, error) {
	want, err := loadDigests(w)
	if err != nil {
		return nil, err
	}
	return &oracle{want: want}, nil
}

// fail counts one failed request and keeps the first few reasons.
func (o *oracle) fail(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	o.failed++
	if len(o.msgs) < 5 {
		o.msgs = append(o.msgs, err.Error())
	}
}

// check verifies one response and returns its digest and whether it is
// correct. full adds the generator-knowledge checks.
func (o *oracle) check(r *request, code int, body []byte, full bool) (uint64, bool) {
	d := digestOf(r, body)
	var err error
	switch {
	case code != http.StatusOK:
		err = fmt.Errorf("%s: status %d: %.200s", r.endpoint, code, body)
	case d != o.want[r.pool]:
		err = fmt.Errorf("%s response differs from the recorded reference (pool entry %d)", r.endpoint, r.pool)
	case full:
		err = checkResponse(r, code, body)
	}
	if err != nil {
		o.fail(err)
		if code == http.StatusServiceUnavailable {
			o.mu.Lock()
			o.refused++
			o.mu.Unlock()
		}
		return d, false
	}
	o.mu.Lock()
	o.attempted++
	o.mu.Unlock()
	return d, true
}

// paperNames are the DIRTY names the paper reports for each snippet's
// variables (Figs 1b and 7b and the §IV discussion); an O0 annotate
// response must rename to exactly this set. AEEK's second "index" is
// deduplicated to "indexa".
var paperNames = map[string][]string{
	"AEEK":      {"array", "key", "index", "indexa", "next", "ret"},
	"BAPL":      {"s", "str", "n", "len", "buf"},
	"POSTORDER": {"t", "cmp", "e", "ret"},
	"TC":        {"to", "from", "n", "mask", "c", "idx", "w"},
}

// studySections is the number of artifacts a full study report renders.
const studySections = 14

// checkResponse applies the generator-knowledge checks.
func checkResponse(r *request, code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", r.endpoint, code, body)
	}
	switch r.endpoint {
	case "annotate":
		var resp struct {
			Output  string `json:"output"`
			Renames []struct {
				NewName string `json:"new_name"`
			} `json:"renames"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("annotate: %w", err)
		}
		if r.level != 0 {
			return nil
		}
		var got []string
		for _, rn := range resp.Renames {
			got = append(got, rn.NewName)
			if !strings.Contains(resp.Output, rn.NewName) {
				return fmt.Errorf("annotate %s: renamed variable %q missing from the output", r.snippet, rn.NewName)
			}
		}
		if !sameSet(got, paperNames[r.snippet]) {
			return fmt.Errorf("annotate %s -O0: DIRTY names %v, paper has %v", r.snippet, got, paperNames[r.snippet])
		}
	case "metrics":
		var resp struct {
			Pairs int `json:"pairs"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		if r.level == 0 && resp.Pairs != len(paperNames[r.snippet]) {
			return fmt.Errorf("metrics %s -O0: %d pairs, want one per renamed variable (%d)", r.snippet, resp.Pairs, len(paperNames[r.snippet]))
		}
	case "decompile":
		var resp struct {
			Output string `json:"output"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decompile: %w", err)
		}
		if got := definedFuncs(resp.Output); !equalStrings(got, r.funcs) {
			return fmt.Errorf("decompile: output defines %v, source defines %v", got, r.funcs)
		}
	case "lint":
		var resp struct {
			Diags []struct {
				Check    string `json:"check"`
				Severity string `json:"severity"`
			} `json:"diags"`
			Covariates map[string]json.RawMessage `json:"covariates"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		for _, d := range resp.Diags {
			if d.Severity == "error" {
				return fmt.Errorf("lint: verifier error %s on a clean generated source", d.Check)
			}
		}
		var keys []string
		for k := range resp.Covariates {
			keys = append(keys, k)
		}
		if !sameSet(keys, r.funcs) {
			return fmt.Errorf("lint: covariates for %v, source defines %v", keys, r.funcs)
		}
	case "study":
		if n := strings.Count(string(body), strings.Repeat("─", 72)); n != studySections {
			return fmt.Errorf("study seed %d: %d report sections, want %d", r.seed, n, studySections)
		}
	}
	return nil
}

// definedFuncs lists the names of the function definitions in decompiled
// pseudo-C: unindented lines that open a body.
func definedFuncs(src string) []string {
	var out []string
	for _, line := range strings.Split(src, "\n") {
		if line == "" || line[0] == ' ' || !strings.HasSuffix(line, "{") {
			continue
		}
		paren := strings.IndexByte(line, '(')
		if paren < 0 {
			continue
		}
		fields := strings.Fields(line[:paren])
		if len(fields) > 0 {
			out = append(out, strings.TrimLeft(fields[len(fields)-1], "*"))
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return equalStrings(a, b)
}

// outcome is the run's verdict: correct when every answer that came back
// was right. A refusal (503) is a failure, counted in Failed and in the
// latency figures, but not a wrong answer.
func (o *oracle) outcome(m map[string]metric) *outcome {
	o.mu.Lock()
	defer o.mu.Unlock()
	return &outcome{Correct: o.failed == o.refused, Attempted: o.attempted, Failed: o.failed, Metrics: m}
}
