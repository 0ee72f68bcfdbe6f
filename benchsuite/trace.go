package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"decompstudy/internal/corpus"
	"decompstudy/internal/embed"
	"decompstudy/internal/modelstore"
	"decompstudy/internal/namerec"
	"decompstudy/internal/obs"
	"decompstudy/internal/serve"
)

// Shares of --seconds a traced run spends serving and replaying.
const (
	tracedServeShare  = 0.35
	tracedReplayShare = 0.45
)

// runtimeTotals reads the process-wide counters behind the runtime.*
// metrics.
func runtimeTotals() (allocBytes, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()
}

// counterSum adds up every series of a counter whose labels contain match.
func counterSum(s obs.Snapshot, name, match string) float64 {
	total := 0.0
	for key, v := range s.Counters {
		if (key == name || strings.HasPrefix(key, name+"{")) && strings.Contains(key, match) {
			total += float64(v)
		}
	}
	return total
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traced is a --trace 1 run. It serves the workload's requests open-loop at
// the high rate and reads the service's own registry, then replays the
// same requests through the layers' public functions twice — untraced, and
// with a span around every layer call plus the program's telemetry on —
// and checks that every replayed response equals the served one.
func traced(w *workload, seed int64, seconds float64, spanDir string, rep *report) (*outcome, error) {
	or, err := newOracle(w)
	if err != nil {
		return nil, err
	}
	total := time.Duration(seconds * float64(time.Second))
	tr := newTracer()
	m := map[string]metric{}

	// Cold training through the layers, as a cold store would do it.
	trainCtx := context.Background()
	ctxs, err := corpus.EmbeddingContexts()
	if err != nil {
		return nil, err
	}
	files, err := corpus.TrainingFiles()
	if err != nil {
		return nil, err
	}
	var embedMs, recMs []float64
	for i := 0; i < 3; i++ {
		id := tr.start("embed.TrainCtx", 0, -1)
		t := time.Now()
		if _, err := embed.TrainCtx(trainCtx, ctxs, &embed.Config{Dim: serve.DefaultEmbedDim}); err != nil {
			return nil, err
		}
		embedMs = append(embedMs, float64(time.Since(t))/1e6)
		tr.end(id)
		id = tr.start("namerec.TrainModelCtx", 0, -1)
		t = time.Now()
		if _, err := namerec.TrainModelCtx(trainCtx, files); err != nil {
			return nil, err
		}
		recMs = append(recMs, float64(time.Since(t))/1e6)
		tr.end(id)
	}
	m["embed.train_ms"] = metric{median(embedMs), "ms"}
	m["namerec.train_ms"] = metric{median(recMs), "ms"}

	d := &driver{seq: w.inputs(w, seed), oracle: or, keep: true, block: w.block}
	svc, _, err := d.setup(w)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	// The model store's hit rate counts the server's own lookups: those of
	// its set-up and of the served phase, not the replay's.
	setupStore := svc.store.Stats()
	l, err := newLayers(context.Background(), svc.store, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}

	// Serve.
	storeBefore := svc.store.Stats()
	before := svc.o.Metrics.Snapshot()
	cacheBefore := l.em.CacheStats()
	alloc0, gc0, cpu0 := runtimeTotals()
	served, err := d.openLoop("traced-high", w.high(), time.Duration(tracedServeShare*float64(total)))
	if err != nil {
		return nil, err
	}
	alloc1, gc1, cpu1 := runtimeTotals()
	storeAfter := svc.store.Stats()
	after := svc.o.Metrics.Snapshot()
	cacheAfter := l.em.CacheStats()
	rep.Phases = append(rep.Phases, summarize(served))
	if w.generatorFellBehind(served) {
		return nil, fmt.Errorf("%s: the load generator fell behind (p99 %.1f ms late); the run is invalid", served.name, served.lateQuantile(0.99))
	}
	n := float64(len(served.samples))
	delta := func(name, match string) float64 {
		return counterSum(after, name, match) - counterSum(before, name, match)
	}
	flushes, items, coalesced := delta("serve.batch.flushes", ""), delta("serve.batch.items", ""), delta("serve.batch.coalesced", "")
	m["serve.batch.items_per_flush"] = metric{ratio(items, flushes), "count"}
	m["serve.batch.dedup_ratio"] = metric{ratio(coalesced, items), "ratio"}
	m["serve.batch.timer_flush_share"] = metric{ratio(delta("serve.batch.flushes", `reason="timer"`), flushes), "ratio"}
	m["serve.admission.rejected"] = metric{delta("serve.admission.rejected", ""), "count"}
	m["serve.batch.rejected"] = metric{delta("serve.batch.rejected", ""), "count"}
	// Every batch item computed (not coalesced) prepares its snippet once.
	m["corpus.prepare_per_req"] = metric{ratio(items-coalesced, n), "ratio"}
	m["embed.cache.hit_rate"] = metric{ratio(float64(cacheAfter.Hits-cacheBefore.Hits), float64(cacheAfter.Hits-cacheBefore.Hits+cacheAfter.Misses-cacheBefore.Misses)), "ratio"}
	hits := func(s modelstore.Stats) int64 { return s.Hits + s.DiskHits }
	m["modelstore.hit_rate"] = metric{ratio(
		float64(hits(setupStore)+hits(storeAfter)-hits(storeBefore)),
		float64(setupStore.Lookups+storeAfter.Lookups-storeBefore.Lookups)), "ratio"}
	m["runtime.alloc_bytes_per_req"] = metric{ratio(alloc1-alloc0, n), "bytes"}
	m["runtime.gc_cpu_fraction"] = metric{ratio(gc1-gc0, cpu1-cpu0), "ratio"}
	m["bench.gen_late_p99_ms"] = metric{served.lateQuantile(0.99), "ms"}
	m["bench.backlog_end"] = metric{float64(served.backlogEnd), "count"}

	// Replay, alternating untraced and traced chunks so drift hits both.
	o := &obs.Obs{Trace: obs.NewCollectorCap(1 << 16), Metrics: obs.NewRegistry()}
	replayEnd := time.Now().Add(time.Duration(tracedReplayShare * float64(total)))
	var (
		offTotal, onTotal time.Duration
		waits             []float64
		replayed          int
		levels            = map[int]float64{}
		endpoints         = map[string]float64{}
		programMs         = map[string]float64{}
	)
	const chunk = 8
	for start := 0; start < len(served.samples) && time.Now().Before(replayEnd); start += chunk {
		batch := served.samples[start:min(start+chunk, len(served.samples))]
		for pass := 0; pass < 2; pass++ {
			for _, s := range batch {
				if !s.ok {
					continue
				}
				r, err := d.seq.at(s.index)
				if err != nil {
					return nil, err
				}
				var (
					body []byte
					took time.Duration
				)
				if pass == 0 {
					l.tr = nil
					t := time.Now()
					body, err = l.run(l.baseCtx(nil), r, s.index)
					took = time.Since(t)
					offTotal += took
					waits = append(waits, float64(s.latency-took)/1e6)
				} else {
					l.tr = tr
					o.Trace.Reset()
					t := time.Now()
					ctx := l.baseCtx(o)
					body, err = l.run(ctx, r, s.index)
					took = time.Since(t)
					onTotal += took
					if err == nil && r.endpoint == "study" {
						// Without the registry, so the PIRLS count stays
						// the program's own.
						l.fitDirect(l.baseCtx(nil), s.index)
					}
					for _, sp := range o.Trace.Spans() {
						if sp.Name == "survey.Run" || sp.Name == "qualcode.RatePanel" {
							programMs[sp.Name] += float64(sp.Duration()) / 1e6
						}
					}
					replayed++
					levels[r.level]++
					endpoints[r.endpoint]++
				}
				if err == nil && digestOf(r, body) != s.digest {
					err = fmt.Errorf("replayed %s response differs from the served one", r.endpoint)
				}
				if err != nil {
					or.fail(fmt.Errorf("replay of request %d: %w", s.index, err))
				}
			}
		}
	}
	l.tr = nil
	if replayed == 0 {
		return nil, fmt.Errorf("traced run replayed no request")
	}
	m["serve.wait_ms"] = metric{median(waits), "ms"}
	m["bench.trace_overhead_pct"] = metric{100 * (float64(onTotal) - float64(offTotal)) / float64(offTotal), "%"}

	self := tr.selfTimes()
	rq := float64(replayed)
	perReq := func(metricName, span string) { m[metricName] = metric{self[span] / rq, "ms"} }
	for lv := 0; lv < 3; lv++ {
		name := fmt.Sprintf("-O%d", lv)
		m["corpus.prepare_ms_O"+fmt.Sprint(lv)] = metric{ratio(self["corpus.PrepareOptCtx/"+name], levels[lv]), "ms"}
		if lv > 0 {
			m["opt.optimize_ms_O"+fmt.Sprint(lv)] = metric{ratio(self["opt.OptimizeObject/"+name], levels[lv]), "ms"}
		}
	}
	perReq("csrc.parse_ms", "csrc.ParseCtx")
	perReq("compile.lower_ms", "compile.CompileCtx")
	perReq("decomp.lift_ms", "decomp.LiftFuncCtx")
	perReq("namerec.annotate_ms", "namerec.AnnotateCtx")
	perReq("analysis.verify_ms", "analysis.VerifyCtx")
	perReq("analysis.lint_ms", "analysis.LintCtx")
	perReq("analysis.measure_ms", "analysis.MeasureCtx")
	perReq("metrics.evaluate_ms", "metrics.EvaluateCtx")
	perReq("core.runner_ms", "experiments.NewRunnerCtx")
	perReq("experiments.render_ms", "experiments.Runner.All")
	perReq("mixed.glmm_fit_ms", "mixed.FitGLMMLogitCtx")
	perReq("mixed.lmm_fit_ms", "mixed.FitLMMCtx")
	m["survey.run_ms"] = metric{programMs["survey.Run"] / rq, "ms"}
	m["qualcode.rate_panel_ms"] = metric{programMs["qualcode.RatePanel"] / rq, "ms"}

	snap := o.Metrics.Snapshot()
	count := func(metricName, counter, unit string, scale float64) {
		m[metricName] = metric{counterSum(snap, counter, "") * scale / rq, unit}
	}
	count("csrc.parse_kb", "csrc.parse.bytes", "KB", 1.0/1024)
	count("compile.funcs", "compile.functions", "count", 1)
	count("decomp.blocks", "decomp.lift.blocks", "count", 1)
	count("opt.instrs_removed", "opt.instrs.removed", "count", 1)
	count("namerec.symbols", "namerec.annotate.symbols", "count", 1)
	count("metrics.pairs", "metrics.evaluate.pairs", "count", 1)
	count("mixed.glmm.pirls_iterations", "mixed.glmm.pirls_iterations", "count", 1)
	m["bench.replayed"] = metric{rq, "count"}

	rep.Errors, rep.Refused = or.msgs, or.refused
	rep.Extra = map[string]any{"replayed_by_endpoint": endpoints, "self_ms_total": self}
	if spanDir != "" {
		if err := writeSpans(spanDir, w.name, seed, tr.spans); err != nil {
			return nil, err
		}
	}
	return or.outcome(m), nil
}

// writeSpans writes the run's spans as JSON lines.
func writeSpans(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
