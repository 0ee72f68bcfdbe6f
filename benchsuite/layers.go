package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"decompstudy/internal/analysis"
	"decompstudy/internal/compile"
	"decompstudy/internal/compile/opt"
	"decompstudy/internal/core"
	"decompstudy/internal/corpus"
	"decompstudy/internal/csrc"
	"decompstudy/internal/decomp"
	"decompstudy/internal/embed"
	"decompstudy/internal/experiments"
	"decompstudy/internal/fault"
	"decompstudy/internal/linalg"
	"decompstudy/internal/metrics"
	"decompstudy/internal/mixed"
	"decompstudy/internal/modelstore"
	"decompstudy/internal/namerec"
	"decompstudy/internal/obs"
	"decompstudy/internal/par"
	"decompstudy/internal/serve"
	"decompstudy/internal/survey"
)

// span is one benchmark-recorded interval around a public layer call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a request's root span
	Req    int    `json:"req"`    // request id shared by the request's spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id. A nil tracer records nothing.
func (t *tracer) start(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = int64(time.Since(t.epoch))
	t.mu.Unlock()
}

// selfTimes sums each span name's self time — its duration minus the part
// its child spans cover — in ms.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return out
}

// layers replays requests through the public functions the handlers call,
// in the order they call them, producing the same response bytes. With a
// tracer it records a span around every call.
type layers struct {
	store *modelstore.Store
	em    *embed.Model
	rm    *namerec.Model
	jobs  int
	tr    *tracer
	// study is the study of the last replayed study request, for fitDirect.
	study *core.Study
}

// newLayers resolves the warm models through the service's store, as the
// server's own warm-up does, so the replay uses the very same models.
func newLayers(ctx context.Context, store *modelstore.Store, jobs int) (*layers, error) {
	ctxs, err := corpus.EmbeddingContexts()
	if err != nil {
		return nil, err
	}
	em, err := store.EmbedModel(ctx, ctxs, &embed.Config{Dim: serve.DefaultEmbedDim})
	if err != nil {
		return nil, err
	}
	rm, err := store.NamerecModel(ctx, corpus.TrainingSources(), corpus.TrainingFiles)
	if err != nil {
		return nil, err
	}
	return &layers{store: store, em: em, rm: rm, jobs: jobs}, nil
}

// baseCtx mirrors the server's processing context: telemetry handle (o
// may be nil), worker budget, model store and a fresh fault manifest.
func (l *layers) baseCtx(o *obs.Obs) context.Context {
	ctx := par.WithJobs(obs.With(context.Background(), o), l.jobs)
	ctx = modelstore.With(ctx, l.store)
	return fault.WithManifest(ctx, fault.NewManifest())
}

func encodeJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

type replayBody struct {
	Snippet  string   `json:"snippet"`
	Source   string   `json:"source"`
	Types    []string `json:"types"`
	Opt      int      `json:"opt"`
	Annotate bool     `json:"annotate"`
	Seed     int64    `json:"seed"`
}

// run computes one request's response body. req identifies the request in
// the spans.
func (l *layers) run(ctx context.Context, r *request, req int) ([]byte, error) {
	var b replayBody
	if err := json.Unmarshal(r.body, &b); err != nil {
		return nil, err
	}
	root := l.tr.start("request."+r.endpoint, 0, req)
	defer l.tr.end(root)
	call := func(name string, fn func() error) error {
		id := l.tr.start(name, root, req)
		defer l.tr.end(id)
		return fn()
	}
	level, err := opt.ParseLevel(b.Opt)
	if err != nil {
		return nil, err
	}
	switch r.endpoint {
	case "annotate", "metrics":
		return l.item(par.WithJobs(ctx, 1), r.endpoint, b.Snippet, level, call)
	case "decompile", "lint":
		return l.source(par.WithJobs(ctx, 1), r.endpoint, b, level, call)
	case "study":
		var out string
		var runner *experiments.Runner
		err := call("experiments.NewRunnerCtx", func() (err error) {
			runner, err = experiments.NewRunnerCtx(ctx, &core.Config{Seed: b.Seed, Jobs: l.jobs})
			return err
		})
		if err == nil {
			err = call("experiments.Runner.All", func() (err error) {
				out, err = runner.All()
				return err
			})
		}
		if err != nil {
			return nil, err
		}
		l.study = runner.Study
		return []byte(out), nil
	}
	return nil, fmt.Errorf("unknown endpoint %q", r.endpoint)
}

type callFn func(name string, fn func() error) error

// item is the batched annotate/metrics computation of one request.
func (l *layers) item(ctx context.Context, kind, id string, level opt.Level, call callFn) ([]byte, error) {
	sn, ok := corpus.SnippetByID(strings.ToUpper(id))
	if !ok {
		return nil, fmt.Errorf("unknown snippet %q", id)
	}
	var p *corpus.Prepared
	if err := call("corpus.PrepareOptCtx/"+level.String(), func() (err error) {
		p, err = corpus.PrepareOptCtx(ctx, sn, level)
		return err
	}); err != nil {
		return nil, err
	}
	if kind == "annotate" {
		resp := &serve.AnnotateResponse{Snippet: p.Snippet.ID, Opt: p.OptLevel.String(), Output: p.Dirty.Source(), Renames: []serve.RenameJSON{}}
		for _, rn := range p.Dirty.Renames {
			resp.Renames = append(resp.Renames, serve.RenameJSON{OrigName: rn.OrigName, OrigType: rn.OrigType, NewName: rn.NewName, NewType: rn.NewType, Confidence: rn.Confidence})
		}
		return encodeJSON(resp)
	}
	pairs := make([]metrics.Pair, 0, len(p.Dirty.Renames))
	for _, rn := range p.Dirty.Renames {
		pairs = append(pairs, metrics.Pair{Candidate: rn.NewName, Reference: rn.OrigName})
	}
	var rep metrics.Report
	if err := call("metrics.EvaluateCtx", func() (err error) {
		rep, err = metrics.EvaluateCtx(fault.WithKey(ctx, p.Snippet.ID), pairs, p.Dirty.Source(), p.OrigSource, l.em)
		return err
	}); err != nil {
		return nil, err
	}
	var cov analysis.Covariates
	call("analysis.MeasureCtx", func() error { cov = analysis.MeasureCtx(ctx, p.IR); return nil })
	return encodeJSON(&serve.MetricsResponse{
		Snippet: p.Snippet.ID,
		Opt:     p.OptLevel.String(),
		Pairs:   len(pairs),
		Report: serve.MetricsReport{
			ExactMatch: rep.ExactMatch, Levenshtein: rep.Levenshtein, NormalizedLev: rep.NormalizedLev,
			Jaccard: rep.Jaccard, BLEU: rep.BLEU, CodeBLEU: rep.CodeBLEU, BERTScoreF1: rep.BERTScoreF1, VarCLR: rep.VarCLR,
		},
		Covariates: cov,
	})
}

// source is the decompile(annotate)/lint computation of one mini-C source.
func (l *layers) source(ctx context.Context, kind string, b replayBody, level opt.Level, call callFn) ([]byte, error) {
	var (
		file *csrc.File
		obj  *compile.Object
	)
	err := call("csrc.ParseCtx", func() (err error) { file, err = csrc.ParseCtx(ctx, b.Source, b.Types); return err })
	if err == nil {
		err = call("compile.CompileCtx", func() (err error) { obj, err = compile.CompileCtx(ctx, file); return err })
	}
	if err == nil {
		err = call("opt.OptimizeObject/"+level.String(), func() (err error) { obj, _, err = opt.OptimizeObject(ctx, obj, level); return err })
	}
	if err != nil {
		return nil, err
	}
	if kind == "lint" {
		diags := []analysis.Diag{}
		for _, fn := range obj.Funcs {
			var vd, ld []analysis.Diag
			call("analysis.VerifyCtx", func() error { vd = analysis.VerifyCtx(ctx, fn); return nil })
			diags = append(diags, vd...)
			if analysis.AsError(vd, analysis.SevError) != nil {
				continue
			}
			call("analysis.LintCtx", func() error { ld = analysis.LintCtx(ctx, fn); return nil })
			diags = append(diags, ld...)
		}
		var cov map[string]analysis.Covariates
		call("analysis.MeasureCtx", func() error { cov = analysis.MeasureObject(ctx, obj); return nil })
		return encodeJSON(&serve.LintResponse{Diags: diags, Covariates: cov})
	}
	annotator := &namerec.Annotator{Model: l.rm}
	var sb strings.Builder
	for _, fn := range obj.Funcs {
		var (
			d *decomp.Decompiled
			a *namerec.Annotated
		)
		err := call("decomp.LiftFuncCtx", func() (err error) { d, err = decomp.LiftFuncCtx(ctx, fn); return err })
		if err == nil {
			err = call("namerec.AnnotateCtx", func() (err error) { a, err = annotator.AnnotateCtx(ctx, d); return err })
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fn.Name, err)
		}
		fmt.Fprintln(&sb, a.Source())
	}
	return encodeJSON(&serve.DecompileResponse{Output: sb.String()})
}

// fitDirect refits the paper's two mixed models (RQ1 GLMM, RQ2 LMM:
// ~ uses_DIRTY + Exp_Coding + Exp_RE + (1|user) + (1|question)) on the
// last replayed study's survey data, straight through the mixed package,
// under their own root spans so they do not count toward the request.
func (l *layers) fitDirect(ctx context.Context, req int) {
	st := l.study
	fit := func(name string, rows []survey.Response, y func(survey.Response) float64, fn func(context.Context, *mixed.Spec) (*mixed.Result, error)) {
		spec, err := designSpec(st.Dataset, rows, y)
		if err != nil {
			return
		}
		id := l.tr.start(name, 0, req)
		fn(ctx, spec)
		l.tr.end(id)
	}
	fit("mixed.FitGLMMLogitCtx", st.Dataset.CorrectnessRows(), func(r survey.Response) float64 {
		if r.Correct {
			return 1
		}
		return 0
	}, mixed.FitGLMMLogitCtx)
	fit("mixed.FitLMMCtx", st.Dataset.TimingRows(), func(r survey.Response) float64 { return r.TimeSec }, mixed.FitLMMCtx)
}

func designSpec(ds *survey.Dataset, rows []survey.Response, y func(survey.Response) float64) (*mixed.Spec, error) {
	resp := make([]float64, len(rows))
	design := make([][]float64, len(rows))
	for i, r := range rows {
		resp[i] = y(r)
		dirty := 0.0
		if r.UsesDirty {
			dirty = 1
		}
		design[i] = []float64{1, dirty, r.ExpCoding, r.ExpRE}
	}
	x, err := linalg.NewMatrixFromRows(design)
	if err != nil {
		return nil, err
	}
	uidx, nu := ds.UserIndex(rows)
	qidx, nq := ds.QuestionIndex(rows)
	return &mixed.Spec{
		Response:   resp,
		Fixed:      x,
		FixedNames: []string{"(Intercept)", "uses_DIRTY", "Exp_Coding", "Exp_RE"},
		Random: []mixed.RandomFactor{
			{Name: "user", Index: uidx, NLevels: nu},
			{Name: "question", Index: qidx, NLevels: nq},
		},
	}, nil
}
