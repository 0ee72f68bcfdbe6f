package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"decompstudy/internal/compile"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/csrc"
)

type sourceBody struct {
	Source string   `json:"source"`
	Types  []string `json:"types"`
	Opt    int      `json:"opt"`
}

// TestGeneratedSourcesCompile checks that generated sources parse and
// compile at every optimization level, define the functions the generator
// says they do, and are pairwise distinct.
func TestGeneratedSourcesCompile(t *testing.T) {
	n := 600
	if testing.Short() {
		n = 150
	}
	seen := map[string]int{}
	levels := map[int]int{}
	sizes := map[int]int{}
	for i := 0; i < n; i++ {
		r, err := genSource(sourcePoolSeed, i)
		if err != nil {
			t.Fatal(err)
		}
		var b sourceBody
		if err := json.Unmarshal(r.body, &b); err != nil {
			t.Fatal(err)
		}
		if j, dup := seen[b.Source]; dup {
			t.Fatalf("entries %d and %d generated the same source", j, i)
		}
		seen[b.Source] = i
		levels[b.Opt]++
		sizes[len(r.funcs)]++
		f, err := csrc.Parse(b.Source, b.Types)
		if err != nil {
			t.Fatalf("entry %d: %v\n%s", i, err, b.Source)
		}
		if len(f.Functions) != len(r.funcs) {
			t.Fatalf("entry %d: %d functions parsed, generator says %d", i, len(f.Functions), len(r.funcs))
		}
		for k, fn := range f.Functions {
			if fn.Name != r.funcs[k] {
				t.Fatalf("entry %d: function %d is %s, generator says %s", i, k, fn.Name, r.funcs[k])
			}
		}
		obj, err := compile.CompileCtx(context.Background(), f)
		if err != nil {
			t.Fatalf("entry %d: compile: %v\n%s", i, err, b.Source)
		}
		for level := opt.Level(0); level <= 2; level++ {
			if _, _, err := opt.OptimizeObject(context.Background(), obj, level); err != nil {
				t.Fatalf("entry %d: %s: %v\n%s", i, level, err, b.Source)
			}
		}
	}
	for k := 1; k <= uniqueMaxFuncs; k++ {
		if sizes[k] == 0 {
			t.Errorf("no source with %d functions in %d entries", k, n)
		}
	}
	if levels[0] < levels[1] || levels[0] < levels[2] || levels[1] == 0 || levels[2] == 0 {
		t.Errorf("opt level mix %v, want about 2:1:1", levels)
	}
}

// TestSourceBlocksSameMix checks that every block of the unique-sources
// pool holds each endpoint × level slot × function count once, with the
// same base units at the same positions, and that a run's walk keeps whole
// blocks together.
func TestSourceBlocksSameMix(t *testing.T) {
	shapes := map[int]string{}
	for b := 0; b < 3; b++ {
		combos := map[string]int{}
		for p := 0; p < sourceBlock; p++ {
			r, err := genSource(sourcePoolSeed, b*sourceBlock+p)
			if err != nil {
				t.Fatal(err)
			}
			combos[fmt.Sprint(r.endpoint, len(r.funcs))]++
			combos[fmt.Sprint("level", r.level, len(r.funcs))]++
			// Renaming and constant perturbation keep a unit's lines, so
			// equal base units give equal line counts.
			var body sourceBody
			if err := json.Unmarshal(r.body, &body); err != nil {
				t.Fatal(err)
			}
			shape := fmt.Sprint(r.endpoint, r.level, len(r.funcs), strings.Count(body.Source, "\n"))
			if b == 0 {
				shapes[p] = shape
			} else if shapes[p] != shape {
				t.Errorf("block %d position %d has shape %s, block 0 has %s", b, p, shape, shapes[p])
			}
		}
		for k := 1; k <= uniqueMaxFuncs; k++ {
			if combos[fmt.Sprint("decompile", k)] != 4 || combos[fmt.Sprint("lint", k)] != 4 {
				t.Errorf("block %d: %d-function sources are not 4 decompile + 4 lint: %v", b, k, combos)
			}
			if combos[fmt.Sprint("level", 0, k)] != 4 || combos[fmt.Sprint("level", 1, k)] != 2 || combos[fmt.Sprint("level", 2, k)] != 2 {
				t.Errorf("block %d: %d-function sources are not O0/O1/O2 = 4/2/2: %v", b, k, combos)
			}
		}
	}
	w, err := lookupWorkload("unique-sources")
	if err != nil {
		t.Fatal(err)
	}
	seq := w.inputs(w, 5)
	blocks := map[int]int{}
	for i := 0; i < sourceBlock; i++ {
		r, err := seq.at(sourceBlock + i)
		if err != nil {
			t.Fatal(err)
		}
		blocks[r.pool/sourceBlock]++
	}
	if len(blocks) != 1 {
		t.Errorf("requests %d..%d come from pool blocks %v, want one block", sourceBlock, 2*sourceBlock-1, blocks)
	}
}

// TestSameSeedSameInputs checks that every workload's inputs are a pure
// function of the seed, and that different seeds give different inputs.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.inputs(w, 7), w.inputs(w, 7), w.inputs(w, 8)
		for i := 0; i < 50; i++ {
			ra, err := a.at(i)
			if err != nil {
				t.Fatal(err)
			}
			rb, _ := b.at(i)
			if ra.endpoint != rb.endpoint || !bytes.Equal(ra.body, rb.body) {
				t.Fatalf("%s: request %d differs between two runs at seed 7", w.name, i)
			}
		}
		differ := false
		for i := 0; i < 50 && !differ; i++ {
			ra, _ := a.at(i)
			rc, _ := c.at(i)
			differ = !bytes.Equal(ra.body, rc.body)
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 give the same first 50 requests", w.name)
		}
	}
}

// TestHotScheduleSkew checks the Zipf skew and the 2:1 endpoint mix.
func TestHotScheduleSkew(t *testing.T) {
	pick := hotPicker(3)
	reqs := make([]*request, 30000)
	for i := range reqs {
		reqs[i] = hotPool[pick(i)]
	}
	byKey := map[string]int{}
	ann := 0
	for _, r := range reqs {
		byKey[fmt.Sprint(r.snippet, r.level)]++
		if r.endpoint == "annotate" {
			ann++
		}
	}
	if len(byKey) != 12 {
		t.Fatalf("%d keys drawn, want 12", len(byKey))
	}
	top, bottom := 0, len(reqs)
	for _, n := range byKey {
		top = max(top, n)
		bottom = min(bottom, n)
	}
	if top < 5*bottom {
		t.Errorf("key counts %v are not skewed", byKey)
	}
	if share := float64(ann) / float64(len(reqs)); share < 0.63 || share > 0.70 {
		t.Errorf("annotate share %.3f, want 2/3", share)
	}
}
