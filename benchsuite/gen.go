package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"decompstudy/internal/corpus"
	"decompstudy/internal/csrc"
)

// request is one generated API call. The server receives only endpoint and
// body; the other fields are the generator's knowledge of the input, which
// the oracle checks responses against.
type request struct {
	endpoint string // annotate | metrics | decompile | lint | study
	body     []byte
	// pool is the request's index in its workload's recorded digest pool.
	pool int
	// funcs lists the function names a generated source defines, in order.
	funcs   []string
	snippet string // study snippet of a hot-snippets request
	level   int    // optimization level
	seed    int64  // study seed
}

// mix64 hashes (seed, stream, index) to 64 well-mixed bits (splitmix64
// finalizer over an FNV-folded stream name).
func mix64(seed int64, stream string, index int) uint64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(index)*0xBF58476D1CE4E5B9
	for _, c := range stream {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	return h ^ h>>31
}

// seqRand returns a deterministic generator for (seed, stream, index).
func seqRand(seed int64, stream string, index int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(seed, stream, index) >> 1)))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are marshalled here
	}
	return b
}

// ---- hot-snippets --------------------------------------------------------

// hotPool lists the 24 distinct hot-snippets requests — annotate and
// metrics for each of the 12 (snippet × O0/O1/O2) keys — in the order the
// recorded digests follow.
var hotPool = func() []*request {
	var out []*request
	for _, ep := range []string{"annotate", "metrics"} {
		for _, id := range []string{"AEEK", "BAPL", "POSTORDER", "TC"} {
			for level := 0; level < 3; level++ {
				out = append(out, &request{
					endpoint: ep,
					body:     mustJSON(map[string]any{"snippet": id, "opt": level}),
					pool:     len(out),
					snippet:  id,
					level:    level,
				})
			}
		}
	}
	return out
}()

func hotEntry(i int) (*request, error) { return hotPool[i], nil }

// ---- unique-sources ------------------------------------------------------

// unit is one base translation unit the source generator instantiates:
// a training-corpus source or a study snippet.
type unit struct {
	src    string
	types  []string
	toks   []csrc.Token
	offs   []int    // byte offset of each token
	funcs  []string // function names, in order
	define []string // identifiers the unit defines (renamed per instance)
}

var (
	unitsOnce sync.Once
	units     []*unit
	unitsErr  error
)

// baseUnits parses the training corpus and the four study snippets once.
func baseUnits() ([]*unit, error) {
	unitsOnce.Do(func() {
		for _, src := range corpus.TrainingSources() {
			u, err := newUnit(src, nil)
			if err != nil {
				unitsErr = err
				return
			}
			units = append(units, u)
		}
		for _, sn := range corpus.Snippets() {
			u, err := newUnit(sn.Source, sn.ExtraTypes)
			if err != nil {
				unitsErr = err
				return
			}
			units = append(units, u)
		}
	})
	return units, unitsErr
}

func newUnit(src string, types []string) (*unit, error) {
	f, err := csrc.Parse(src, types)
	if err != nil {
		return nil, fmt.Errorf("parse base unit: %w", err)
	}
	toks, err := csrc.Lex(src)
	if err != nil {
		return nil, fmt.Errorf("lex base unit: %w", err)
	}
	lineStart := []int{0}
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			lineStart = append(lineStart, i+1)
		}
	}
	u := &unit{src: src, types: types, toks: toks, offs: make([]int, len(toks))}
	for i, t := range toks {
		if t.Kind != csrc.TokEOF {
			u.offs[i] = lineStart[t.Line-1] + t.Col - 1
		}
	}
	defined := map[string]bool{}
	for _, t := range types {
		defined[t] = true
	}
	for name := range f.Typedefs {
		defined[name] = true
	}
	for _, s := range f.Structs {
		defined[s.Name] = true
		for _, fld := range s.Fields {
			defined[fld.Name] = true
		}
	}
	for _, fn := range f.Functions {
		u.funcs = append(u.funcs, fn.Name)
		defined[fn.Name] = true
		for _, p := range fn.Params {
			defined[p.Name] = true
		}
		collectLocals(fn.Body, defined)
	}
	for name := range defined {
		if name != "" {
			u.define = append(u.define, name)
		}
	}
	sort.Strings(u.define)
	return u, nil
}

func collectLocals(s csrc.Stmt, into map[string]bool) {
	switch st := s.(type) {
	case *csrc.Block:
		for _, inner := range st.Stmts {
			collectLocals(inner, into)
		}
	case *csrc.DeclStmt:
		into[st.Name] = true
	case *csrc.If:
		collectLocals(st.Then, into)
		if st.Else != nil {
			collectLocals(st.Else, into)
		}
	case *csrc.While:
		collectLocals(st.Body, into)
	case *csrc.For:
		if st.Init != nil {
			collectLocals(st.Init, into)
		}
		collectLocals(st.Body, into)
	}
}

// words is the identifier vocabulary renamed identifiers draw from.
var words = []string{
	"buf", "len", "count", "idx", "node", "entry", "key", "val", "ptr",
	"data", "size", "cap", "src", "dst", "out", "acc", "tmp", "item",
	"list", "tree", "table", "slot", "pos", "off", "mask", "flag", "res",
	"cur", "next", "prev", "head", "tail", "left", "right", "total", "sum",
	"byte", "word", "elem", "path", "name", "ctx", "state", "limit", "step",
}

// uniqueMaxFuncs bounds the functions per generated source.
const uniqueMaxFuncs = 8

// sourceBlock is the size of the unique-sources pool's blocks: each block
// holds every combination of endpoint (2), opt-level slot (4: O0, O0, O1,
// O2) and function count (1–8) once.
const sourceBlock = 2 * 4 * uniqueMaxFuncs

// genSource builds pool entry i of the unique-sources workload: 1–8
// functions drawn from the base units, every defined identifier renamed,
// integer constants ≥ 2 perturbed, at O0/O1/O2 = 2:1:1, sent to
// decompile(annotate) or lint 1:1. The entry's shape — endpoint, level,
// function count and the base units it instantiates — is fixed by its
// place in its block of sourceBlock entries, so every block holds the same
// 64 shapes and costs the service about the same; the names and constants
// are drawn per entry, so every source is distinct.
func genSource(poolSeed int64, i int) (*request, error) {
	us, err := baseUnits()
	if err != nil {
		return nil, err
	}
	shape := seqRand(poolSeed, "shape", i%sourceBlock)
	rng := seqRand(poolSeed, "source", i)
	endpoint := []string{"decompile", "lint"}[i%2]
	level := []int{0, 0, 1, 2}[i/2%4]
	want := 1 + i/8%uniqueMaxFuncs
	var (
		sb    strings.Builder
		types []string
		funcs []string
	)
	for inst := 0; len(funcs) < want; inst++ {
		var fit []*unit
		for _, u := range us {
			if len(funcs)+len(u.funcs) <= want {
				fit = append(fit, u)
			}
		}
		u := fit[shape.Intn(len(fit))]
		tag := strconv.Itoa(inst)
		if inst == 0 {
			tag = strconv.FormatInt(int64(i), 36) + "_0"
		}
		names := renameMap(rng, u, tag)
		sb.WriteString(instantiate(rng, u, names))
		sb.WriteString("\n")
		for _, t := range u.types {
			types = append(types, names[t])
		}
		for _, fn := range u.funcs {
			funcs = append(funcs, names[fn])
		}
	}
	body := map[string]any{"source": sb.String(), "opt": level}
	if len(types) > 0 {
		body["types"] = types
	}
	if endpoint == "decompile" {
		body["annotate"] = true
	}
	return &request{endpoint: endpoint, body: mustJSON(body), pool: i, funcs: funcs, level: level}, nil
}

// sourceEntry is pool entry i of the unique-sources workload.
func sourceEntry(i int) (*request, error) { return genSource(sourcePoolSeed, i) }

// renameMap assigns every identifier the unit defines a fresh name. Names
// are unique within the instance; the instance tag keeps function, struct
// and type names unique across instances of one source.
func renameMap(rng *rand.Rand, u *unit, tag string) map[string]string {
	used := map[string]bool{}
	out := make(map[string]string, len(u.define))
	for _, name := range u.define {
		for {
			fresh := words[rng.Intn(len(words))] + "_" + words[rng.Intn(len(words))] + "_" + tag
			if !used[fresh] {
				used[fresh] = true
				out[name] = fresh
				break
			}
		}
	}
	return out
}

// instantiate rewrites the unit's source token by token: defined
// identifiers are renamed and integer constants ≥ 2 move by -2..+2 (never
// below 2, so no division or shift becomes degenerate).
func instantiate(rng *rand.Rand, u *unit, names map[string]string) string {
	var sb strings.Builder
	last := 0
	for i, t := range u.toks {
		var repl string
		switch t.Kind {
		case csrc.TokIdent:
			fresh, ok := names[t.Text]
			if !ok {
				continue
			}
			repl = fresh
		case csrc.TokNumber:
			digits := strings.TrimRight(t.Text, "lLuU")
			v, err := strconv.ParseInt(digits, 0, 64)
			if err != nil || v < 2 {
				continue
			}
			v += int64(rng.Intn(5) - 2)
			if v < 2 {
				v = 2
			}
			repl = strconv.FormatInt(v, 10) + t.Text[len(digits):]
		default:
			continue
		}
		sb.WriteString(u.src[last:u.offs[i]])
		sb.WriteString(repl)
		last = u.offs[i] + len(t.Text)
	}
	sb.WriteString(u.src[last:])
	return sb.String()
}

// ---- study-runs ----------------------------------------------------------

// studyEntry is pool entry i of the study-runs workload: a full study at
// seed 1000+i, so every pool entry is a distinct study.
func studyEntry(i int) (*request, error) {
	seed := int64(1000 + i)
	return &request{endpoint: "study", body: mustJSON(map[string]any{"seed": seed}), pool: i, seed: seed}, nil
}
