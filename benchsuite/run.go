package main

import (
	"fmt"
	"math"
	"time"
)

// warmUp is how long a run drives the closed loop, untimed, between its
// last set-up and its measured phases: the first second of load on a
// fresh process ran up to a third slower than the rest.
const warmUp = time.Second

// tailQ is the quantile of the reported latency tail. A p99 of the few
// thousand samples an open-loop phase holds was decided by stalls of the
// shared machine (its spread between runs exceeded 1); a p90 is not.
const tailQ = 0.9

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run prints as its last line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the detail a run prints before its outcome.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Host     host           `json:"host"`
	Phases   []phaseReport  `json:"phases"`
	Ladder   []phaseReport  `json:"capacity_probes,omitempty"`
	Refused  int            `json:"refused"`
	Used     int            `json:"requests_generated"`
	Errors   []string       `json:"errors,omitempty"`
	Extra    map[string]any `json:"extra,omitempty"`
}

type phaseReport struct {
	Name       string  `json:"name"`
	Rounds     int     `json:"rounds,omitempty"`
	Median     float64 `json:"median_estimate_ms,omitempty"`
	Tail       float64 `json:"p90_estimate_ms,omitempty"`
	Rate       float64 `json:"offered_rps,omitempty"`
	Sent       float64 `json:"sent_rps,omitempty"`
	Clients    int     `json:"clients,omitempty"`
	Samples    int     `json:"samples"`
	Failed     int     `json:"failed"`
	Refused    int     `json:"refused"`
	P50        float64 `json:"p50_ms"`
	P90        float64 `json:"p90_ms"`
	P99        float64 `json:"p99_ms"`
	LateP99    float64 `json:"generator_late_p99_ms,omitempty"`
	CheckUs    float64 `json:"harness_check_us"`
	BacklogMid int     `json:"backlog_mid,omitempty"`
	BacklogEnd int     `json:"backlog_end,omitempty"`
	Pass       *bool   `json:"meets_limit,omitempty"`
	// RoundRPS is the verified answer rate of each round, in run order.
	RoundRPS []float64 `json:"round_rps,omitempty"`
}

// summarizeOpen adds the estimates the end-to-end metrics report. A
// latency phase's answer rate is its offered rate, so it has no RoundRPS.
func summarizeOpen(p *phase) phaseReport {
	r := summarize(p)
	r.Rounds, r.Median, r.Tail = len(p.rounds), p.estimate(0.5), p.estimate(tailQ)
	r.RoundRPS = nil
	return r
}

func summarize(p *phase) phaseReport {
	failed, refused := p.failures()
	var perRound []float64
	for _, r := range p.rounds {
		perRound = append(perRound, r.throughput())
	}
	return phaseReport{
		Name: p.name, Rate: p.rate, Sent: p.offered, Clients: p.clients, Samples: len(p.samples),
		Failed: failed, Refused: refused,
		P50: p.quantile(0.5), P90: p.quantile(0.9), P99: p.quantile(0.99),
		LateP99: p.lateQuantile(0.99), BacklogMid: p.backlogMid, BacklogEnd: p.backlogEnd, CheckUs: p.checkUs(),
		RoundRPS: perRound,
	}
}

// setup builds the service from a cold model store and sends each endpoint
// of the workload its first request, untimed by any later phase. It
// returns the service and the set-up time.
func (d *driver) setup(w *workload) (*service, time.Duration, error) {
	start := time.Now()
	svc, err := newService()
	if err != nil {
		return nil, 0, err
	}
	d.svc = svc
	seen := map[string]bool{}
	for len(seen) < len(w.endpoints) {
		i := d.next
		d.next++
		r, err := d.seq.at(i)
		if err != nil {
			svc.close()
			return nil, 0, err
		}
		if seen[r.endpoint] {
			continue
		}
		seen[r.endpoint] = true
		d.do(i, time.Now(), time.Now(), true)
	}
	return svc, time.Since(start), nil
}

// meets reports whether an open-loop phase met the workload's latency
// limit with no failure and no growing backlog: at the end no more
// requests may be outstanding than the limit lets the offered rate
// accumulate (Little's law).
func (w *workload) meets(p *phase) bool {
	failed, _ := p.failures()
	allowed := max(2, int(math.Ceil(p.rate*w.limitMs/1000)))
	return failed == 0 && p.quantile(w.limitQ) <= w.limitMs && p.backlogEnd <= allowed
}

// generatorFellBehind reports whether the load generator's own delay would
// break the latency limit, which makes the phase measure the harness.
func (w *workload) generatorFellBehind(p *phase) bool {
	return p.lateQuantile(0.99) > w.limitMs
}

// closedAhead is how many closed-loop requests are generated before the
// clock starts.
func (w *workload) closedAhead(dur time.Duration) int {
	return int(w.closedRate*dur.Seconds()) + 64
}

// measure is a --trace 0 run: set-up, closed loop, open loop at low and
// high, then the capacity search.
func measure(w *workload, seed int64, seconds float64, rep *report) (*outcome, error) {
	or, err := newOracle(w)
	if err != nil {
		return nil, err
	}
	d := &driver{seq: w.inputs(w, seed), oracle: or, block: w.block}
	var setups []float64
	var svc *service
	for i := 0; i < w.setups; i++ {
		if svc != nil {
			svc.close()
		}
		var took time.Duration
		svc, took, err = d.setup(w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer svc.close()
	if _, err := d.closedLoop("warm-up", w.clients, warmUp, w.closedAhead(warmUp)); err != nil {
		return nil, err
	}

	heap := startHeapSampler()
	closed, low, high, over, capacity, probes, err := d.phases(w, time.Duration(seconds*float64(time.Second)))
	heapMB := heap.finish()
	if err != nil {
		return nil, err
	}
	rep.Phases = append(rep.Phases, summarize(closed), summarizeOpen(low), summarizeOpen(high))
	if over != nil {
		rep.Phases = append(rep.Phases, summarize(over))
	}
	for _, p := range probes {
		s := summarize(p)
		pass := w.meets(p)
		s.Pass = &pass
		rep.Ladder = append(rep.Ladder, s)
	}
	rep.Errors, rep.Refused, rep.Used = or.msgs, or.refused, d.next

	m := map[string]metric{
		"setup_s":             {median(setups), "s"},
		"throughput_rps":      {closed.throughput(), "req/s"},
		"capacity_rps":        {capacity, "req/s"},
		"latency_p50_ms_low":  {low.estimate(0.5), "ms"},
		"latency_p50_ms_high": {high.estimate(0.5), "ms"},
		"latency_p90_ms_low":  {low.estimate(tailQ), "ms"},
		"latency_p90_ms_high": {high.estimate(tailQ), "ms"},
		"heap_peak_mb":        {heapMB, "MB"},
	}
	return or.outcome(m), nil
}

// phases runs the measured phases of a --trace 0 run in total time: the
// closed loop and the open loop at the low and high rates (and at the
// overload rate, if the workload has one), interleaved in w.rounds rounds
// so that a slow stretch of the machine lands in one round of each rather
// than in one whole phase, then the capacity probes (if no overload rate).
func (d *driver) phases(w *workload, total time.Duration) (closed, low, high, over *phase, capacity float64, probes []*phase, err error) {
	openDur := time.Duration(w.openShare * float64(total) / float64(w.rounds))
	closedDur := time.Duration(w.closedShare * float64(total) / float64(w.rounds))
	restDur := time.Duration((1 - w.closedShare - 2*w.openShare) * float64(total))
	var cs, ls, hs, overs []*phase
	for r := 0; r < w.rounds; r++ {
		var c, l, h *phase
		if c, err = d.closedLoop("closed", w.clients, closedDur, w.closedAhead(closedDur)); err != nil {
			return
		}
		if l, err = d.openLoop("open-low", w.low, openDur); err != nil {
			return
		}
		if h, err = d.openLoop("open-high", w.high(), openDur); err != nil {
			return
		}
		cs, ls, hs = append(cs, c), append(ls, l), append(hs, h)
		if w.overload > 0 {
			d.probing = true
			o, oerr := d.openLoop("overload", w.overload, restDur/time.Duration(w.rounds))
			d.probing = false
			if err = oerr; err != nil {
				return
			}
			overs = append(overs, o)
		}
	}
	closed, low, high = merge("closed", cs), merge("open-low", ls), merge("open-high", hs)
	if closed.exhausted {
		err = fmt.Errorf("closed loop used up its %d pre-generated inputs per round; the run is invalid", w.closedAhead(closedDur))
		return
	}
	for _, p := range []*phase{low, high} {
		if w.generatorFellBehind(p) {
			err = fmt.Errorf("%s: the load generator fell behind (p99 %.1f ms late); the run is invalid", p.name, p.lateQuantile(0.99))
			return
		}
	}
	if w.overload > 0 {
		over = merge("overload", overs)
		capacity = over.throughput()
		return
	}
	capacity, probes, err = d.capacity(w, closed.throughput(), restDur/time.Duration(w.probes))
	return
}

// capacity runs a staircase over the workload's fixed rate ladder. It
// starts at the rung nearest w.startOver times the closed-loop throughput
// this run measured, so it begins near capacity on a fast machine and a
// slow one alike, and
// steps up after a probe that meets the latency limit and down after one
// that does not, doubling the step (up to twice the first step) until the
// first reversal and halving it at every reversal after; unbounded
// doubling overshot to twice the capacity when one early probe passed at
// a fast moment, and the wide crossings that followed decided the figure.
// The limit is crossed between the two probes of each reversal, taken as
// the geometric mean of the rates the generator actually sent; capacity is
// the geometric mean of the last four crossings, so one noisy probe moves
// it by a fraction of a rung instead of deciding it. Refusals inside a probe are the probe's verdict, not
// failures of the run: probes above capacity are meant to overload. A
// wrong answer still counts against the run.
func (d *driver) capacity(w *workload, throughput float64, dur time.Duration) (float64, []*phase, error) {
	cur := int(math.Round(math.Log(w.startOver*throughput/w.low) / math.Log(w.ratio)))
	step := w.step
	var (
		crossings []float64
		probes    []*phase
		last      bool
	)
	for i := 0; i < w.probes; i++ {
		d.probing = true
		p, err := d.openLoop(fmt.Sprintf("probe-%d", cur), w.rate(cur), dur)
		d.probing = false
		if err != nil {
			return 0, nil, err
		}
		pass := w.meets(p)
		switch {
		case i > 0 && pass != last:
			prev := probes[len(probes)-1]
			crossings = append(crossings, math.Log(prev.offered*p.offered)/2)
			step = max(1, step/2)
		case i > 0 && len(crossings) == 0:
			step = min(2*step, 2*w.step)
		}
		probes = append(probes, p)
		last = pass
		if pass {
			cur += step
		} else {
			cur -= step
		}
	}
	if len(crossings) == 0 {
		// Every probe passed (or failed): capacity is at least (or below)
		// the last rate probed.
		return probes[len(probes)-1].offered, probes, nil
	}
	k := crossings[max(0, len(crossings)-4):]
	mean := 0.0
	for _, c := range k {
		mean += c / float64(len(k))
	}
	return math.Exp(mean), probes, nil
}
