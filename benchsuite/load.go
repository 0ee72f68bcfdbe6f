package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"decompstudy/internal/modelstore"
	"decompstudy/internal/obs"
	"decompstudy/internal/serve"
)

// service is the system under test, assembled the way cmd/served assembles
// it: default Options, an in-memory model store, and full telemetry (the
// obs registry, span collector and runtime sampler). Requests reach it
// through its http.Handler in-process; no socket is opened.
type service struct {
	o       *obs.Obs
	store   *modelstore.Store
	srv     *serve.Server
	h       http.Handler
	sampler *obs.Sampler
}

func newService() (*service, error) {
	o := &obs.Obs{Trace: obs.NewCollector(), Metrics: obs.NewRegistry()}
	sampler := obs.NewSampler(o.Metrics, obs.DefaultSampleInterval)
	sampler.Start()
	store := modelstore.New()
	srv, err := serve.NewServer(context.Background(), o, store, serve.Options{})
	if err != nil {
		sampler.Stop()
		return nil, fmt.Errorf("start server: %w", err)
	}
	return &service{o: o, store: store, srv: srv, h: srv.Handler(), sampler: sampler}, nil
}

func (s *service) close() {
	s.srv.Close()
	s.sampler.Stop()
}

// call sends one request through the handler and returns the status and
// body.
func (s *service) call(r *request) (int, []byte) {
	req, err := http.NewRequest(http.MethodPost, "/v1/"+r.endpoint, bytes.NewReader(r.body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// sample is one measured request.
type sample struct {
	index   int // position in the run's request sequence
	end     time.Time
	latency time.Duration // from due time (open loop) or send (closed loop)
	late    time.Duration // how late the generator sent it (open loop)
	check   time.Duration // the harness's own time verifying the response
	digest  uint64
	ok      bool // 200 and verified
	refused bool // 503
}

// phase is the outcome of one load phase.
type phase struct {
	name       string
	rate       float64 // scheduled req/s (open loop)
	offered    float64 // req/s the generator actually sent
	clients    int     // closed loop
	start      time.Time
	dur        time.Duration // scheduled length
	samples    []sample
	backlogMid int // requests sent but not answered halfway through
	backlogEnd int // ... and when the last request was due
	rounds     []*phase
	// exhausted marks a closed loop whose clients used up the inputs
	// generated before its clock started.
	exhausted bool
}

// throughput is the verified answers within the phase's scheduled length
// per second up to the last of them, so that a phase of a few slow answers
// (a study round holds about ten) is not rounded to whole answers per
// phase; for a phase run in rounds, the median over the rounds, so a stall
// of the machine spoils one round rather than the figure.
func (p *phase) throughput() float64 {
	if len(p.rounds) > 0 {
		var per []float64
		for _, r := range p.rounds {
			per = append(per, r.throughput())
		}
		return median(per)
	}
	ok := 0
	var last time.Duration
	for _, s := range p.samples {
		if at := s.end.Sub(p.start); s.ok && at <= p.dur {
			ok++
			last = max(last, at)
		}
	}
	if ok == 0 {
		return 0
	}
	return float64(ok) / last.Seconds()
}

// merge joins the rounds of one phase, in time order.
func merge(name string, rounds []*phase) *phase {
	m := &phase{name: name, rate: rounds[0].rate, clients: rounds[0].clients, start: rounds[0].start, rounds: rounds}
	for _, r := range rounds {
		m.samples = append(m.samples, r.samples...)
		m.offered += r.offered / float64(len(rounds))
		m.dur += r.dur
		m.backlogMid = max(m.backlogMid, r.backlogMid)
		m.backlogEnd = max(m.backlogEnd, r.backlogEnd)
		m.exhausted = m.exhausted || r.exhausted
	}
	return m
}

func (p *phase) failures() (failed, refused int) {
	for _, s := range p.samples {
		if !s.ok {
			failed++
			if s.refused {
				refused++
			}
		}
	}
	return failed, refused
}

// quantile is the nearest-rank q-quantile of the latencies in ms. A failed
// request counts as missing any limit: it sorts above every answer, as the
// largest float (JSON has no infinity).
func (p *phase) quantile(q float64) float64 {
	if len(p.samples) == 0 {
		return math.MaxFloat64
	}
	return quantileOf(p.latencies(), q)
}

// minRoundSamples is the fewest samples per round for which estimate
// works round by round.
const minRoundSamples = 64

// estimate is the latency q-quantile the end-to-end metrics report, in ms:
// the median over the phase's rounds of each round's Harrell–Davis
// estimate, or, when rounds hold fewer than minRoundSamples samples, the
// Harrell–Davis estimate over all of them. Harrell–Davis weights every
// order statistic near the quantile instead of taking one, so the figure
// moves smoothly where the latency distribution has a gap (the cheap O0
// requests of unique-sources end near its median); the median over rounds
// keeps a slow stretch of a shared machine to the rounds it falls in.
func (p *phase) estimate(q float64) float64 {
	rounds := p.rounds
	if len(rounds) == 0 {
		rounds = []*phase{p}
	}
	var per []float64
	for _, r := range rounds {
		if len(r.samples) < minRoundSamples {
			return harrellDavis(p.latencies(), q)
		}
		per = append(per, harrellDavis(r.latencies(), q))
	}
	return median(per)
}

// latencies lists the phase's latencies in ms; a failure is the largest
// float, so it sorts above every answer.
func (p *phase) latencies() []float64 {
	v := make([]float64, len(p.samples))
	for i, s := range p.samples {
		v[i] = math.MaxFloat64
		if s.ok {
			v[i] = float64(s.latency) / 1e6
		}
	}
	return v
}

// harrellDavis is the Harrell–Davis estimate of the q-quantile of v: the
// mean of the order statistics weighted by the Beta((n+1)q, (n+1)(1-q))
// mass over each one's rank interval [(i-1)/n, i/n]. The mass is
// integrated by the midpoint rule on four points per interval and the
// weights normalized. Failures saturate it at the largest float.
func harrellDavis(v []float64, q float64) float64 {
	n := len(v)
	if n == 0 {
		return math.MaxFloat64
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	lnB := la + lb - lab
	const steps = 4
	var sum, wsum float64
	for i, x := range s {
		w := 0.0
		for k := 0; k < steps; k++ {
			t := (float64(i) + (float64(k)+0.5)/steps) / float64(n)
			w += math.Exp((a-1)*math.Log(t) + (b-1)*math.Log1p(-t) - lnB)
		}
		if w == 0 {
			continue
		}
		if x == math.MaxFloat64 {
			return math.MaxFloat64
		}
		sum += w * x
		wsum += w
	}
	if wsum == 0 {
		return quantileOf(s, q)
	}
	return sum / wsum
}

func (p *phase) lateQuantile(q float64) float64 {
	v := make([]float64, len(p.samples))
	for i, s := range p.samples {
		v[i] = float64(s.late) / 1e6
	}
	return quantileOf(v, q)
}

func quantileOf(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	k := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(0, min(k, len(v)-1))]
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	return s[(n-1)/2]/2 + s[n/2]/2 // halves first: a failure sorts as the largest float
}

// driver runs load phases against a service and verifies every response.
type driver struct {
	svc    *service
	seq    *sequence
	oracle *oracle
	next   int // next unused index of the request sequence
	// probing marks a capacity probe: a refusal there is the probe's
	// verdict, not a failure of the run.
	probing bool
	// keep retains a phase's generated requests for a later replay.
	keep bool
	// block is the length of the sequence's stretches of exact request
	// mix; every phase starts on a block boundary.
	block int
}

// align moves d.next to the next block boundary and returns it.
func (d *driver) align() int {
	b := max(1, d.block)
	d.next = (d.next + b - 1) / b * b
	return d.next
}

// take reserves the next n requests of the sequence from a block
// boundary and generates them before the phase's clock starts.
func (d *driver) take(n int) (int, error) {
	from := d.align()
	d.next += n
	return from, d.seq.prepare(from, d.next)
}

// checkUs is the mean time the harness spent verifying a response, in µs.
func (p *phase) checkUs() float64 {
	var total time.Duration
	for _, s := range p.samples {
		total += s.check
	}
	return float64(total) / 1e3 / float64(max(1, len(p.samples)))
}

// do sends request index and verifies the answer; full adds the
// generator-knowledge checks, which the timed phases leave to the recorded
// digests.
func (d *driver) do(index int, due, sent time.Time, full bool) sample {
	r, err := d.seq.at(index)
	if err != nil {
		d.oracle.fail(fmt.Errorf("request %d: %w", index, err))
		return sample{index: index}
	}
	code, body := d.svc.call(r)
	end := time.Now()
	s := sample{index: index, end: end, latency: end.Sub(due), late: sent.Sub(due), refused: code == http.StatusServiceUnavailable}
	if s.refused && d.probing {
		return s
	}
	s.digest, s.ok = d.oracle.check(r, code, body, full)
	s.check = time.Since(end)
	return s
}

// closedLoop runs `clients` clients that each send their next request when
// the previous one is answered, for dur. Latency is timed from send. The
// first `ahead` requests are generated before the clock starts; a client
// that would need more stops, and the phase is marked exhausted, so no
// input is generated while the clock runs.
func (d *driver) closedLoop(name string, clients int, dur time.Duration, ahead int) (*phase, error) {
	from := d.align()
	if err := d.seq.prepare(from, from+ahead); err != nil {
		return nil, err
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []sample
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) {
				j := int(next.Add(1)) - 1
				if j >= ahead {
					break
				}
				t := time.Now()
				mine = append(mine, d.do(from+j, t, t, false))
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	used := int(next.Load())
	d.next = from + min(used, ahead)
	d.seq.release(from, from+ahead)
	return &phase{name: name, clients: clients, start: start, dur: dur, samples: out, exhausted: used > ahead}, nil
}

// openLoop sends requests on a fixed schedule, one every 1/rate seconds,
// whether or not earlier ones were answered, and times each from the
// moment it was due. A request whose send time has passed is sent at once,
// so a stalled generator never drops load; its lateness is recorded. The
// phase sends the whole number of blocks nearest rate·dur (at least one),
// so it offers the workload's exact request mix.
func (d *driver) openLoop(name string, rate float64, dur time.Duration) (*phase, error) {
	b := max(1, d.block)
	n := max(1, int(math.Round(rate*dur.Seconds()/float64(b)))) * b
	dur = time.Duration(float64(n) / rate * float64(time.Second))
	from, err := d.take(n)
	if err != nil {
		return nil, err
	}
	interval := time.Duration(float64(time.Second) / rate)
	samples := make([]sample, n)
	var (
		wg          sync.WaitGroup
		outstanding atomic.Int64
	)
	start := time.Now()
	p := &phase{name: name, rate: rate, start: start, dur: dur}
	for j := 0; j < n; j++ {
		due := start.Add(time.Duration(j) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if j == n/2 {
			p.backlogMid = int(outstanding.Load())
		}
		wg.Add(1)
		outstanding.Add(1)
		go func(j int, due time.Time) {
			defer wg.Done()
			samples[j] = d.do(from+j, due, time.Now(), false)
			outstanding.Add(-1)
		}(j, due)
	}
	p.offered = rate
	if sent := time.Since(start); n > 1 && sent > 0 {
		p.offered = float64(n-1) / sent.Seconds()
	}
	p.backlogEnd = int(outstanding.Load())
	wg.Wait()
	p.samples = samples
	if !d.keep {
		d.seq.release(from, from+n)
	}
	return p, nil
}

// heapSampler records the live heap at the end of every GC cycle while it
// runs: a finalizer on an unreachable sentinel runs once per cycle and
// re-arms itself.
type heapSampler struct {
	mu      sync.Mutex
	stopped bool
	live    []float64 // MB
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{}
	h.arm()
	return h
}

func (h *heapSampler) arm() {
	runtime.SetFinalizer(new([16]byte), func(*[16]byte) { h.record() })
}

func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func (h *heapSampler) record() {
	v := liveHeapMB()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stopped {
		return
	}
	h.live = append(h.live, v)
	h.arm()
}

// finish stops recording and returns the peak live heap in MB, taken as
// the 95th percentile over the GC cycles it saw, so that no single cycle
// decides it.
func (h *heapSampler) finish() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	if len(h.live) == 0 {
		h.live = append(h.live, liveHeapMB())
	}
	return quantileOf(h.live, 0.95)
}
