package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// sourcePoolSeed fixes the unique-sources pool; the run seed only chooses
// the order in which a run walks it.
const sourcePoolSeed = 20250623

// workload is one traffic mix with its frozen load settings.
type workload struct {
	name string
	// clients is the closed-loop client count; closedRate bounds the
	// closed-loop rate on a fast machine, to size the inputs generated
	// before the clock starts.
	clients    int
	closedRate float64
	// low and high are the open-loop offered rates (req/s), frozen well
	// below the knee of the slowest periods of the shared machine the
	// benchmark was defined on: nearer it, a few slow seconds pushed a
	// phase into queueing and multiplied its latency. Both are rungs of the
	// capacity ladder: the ladder is low·ratio^k, and high is rung
	// highRung.
	low      float64
	highRung int
	ratio    float64
	// The capacity staircase spends probes probes, starting with steps of
	// step rungs from the rung nearest startOver times the closed-loop
	// throughput. startOver is the ratio of capacity to closed-loop
	// throughput measured when the benchmark was defined (open-loop
	// hot-snippets batches more than 32 closed clients do); a stale ratio
	// costs probes, not correctness.
	probes, step int
	startOver    float64
	// overload, when set, replaces the staircase: capacity is the verified
	// answer rate while the open loop offers this fixed rate, far above
	// what the service can serve, and its bounded queue refuses the excess.
	overload float64
	// The latency limit: the limitQ quantile must stay at or below limitMs.
	limitQ  float64
	limitMs float64
	// Shares of --seconds spent per phase, each split over `rounds`
	// interleaved rounds; the capacity probes (or the overload rounds)
	// share the rest equally.
	closedShare, openShare float64
	rounds                 int
	// setups is how many times a run sets the service up; setup_s is the
	// median.
	setups int
	// endpoints lists the endpoints the workload calls.
	endpoints []string
	// entry returns pool entry i; the first poolSize entries have recorded
	// digests.
	entry    func(i int) (*request, error)
	poolSize int
	// block is the length of the stretches of the request sequence that
	// each hold the workload's exact request mix; phases start on a block
	// boundary and send whole blocks.
	block int
	// inputs builds the run's request sequence from the seed.
	inputs func(w *workload, seed int64) *sequence
}

func (w *workload) rate(rung int) float64 { return w.low * math.Pow(w.ratio, float64(rung)) }
func (w *workload) high() float64         { return w.rate(w.highRung) }

var workloads = []*workload{
	{
		name:    "hot-snippets",
		clients: 32,
		low:     240, highRung: 8, ratio: 1.05, probes: 8, step: 2, startOver: 1.8, closedRate: 4000,
		limitQ: 0.99, limitMs: 100,
		closedShare: 0.15, openShare: 0.2, rounds: 10, setups: 41,
		endpoints: []string{"annotate", "metrics"},
		entry:     hotEntry, poolSize: len(hotPool), block: len(hotDeck),
		inputs: hotInputs,
	},
	{
		name:    "unique-sources",
		clients: 8,
		low:     48, highRung: 14, ratio: 1.05, probes: 8, step: 2, startOver: 1.05, closedRate: 1200,
		limitQ: 0.99, limitMs: 250,
		closedShare: 0.15, openShare: 0.25, rounds: 7, setups: 41,
		endpoints: []string{"decompile", "lint"},
		entry:     sourceEntry, poolSize: 32768, block: sourceBlock,
		inputs: walkPool,
	},
	{
		name:    "study-runs",
		clients: 1,
		low:     4, highRung: 2, ratio: 1.1, overload: 24, closedRate: 30,
		limitQ: 0.90, limitMs: 1000,
		closedShare: 0.25, openShare: 0.2, rounds: 6, setups: 11,
		endpoints: []string{"study"},
		entry:     studyEntry, poolSize: 1280, block: 1,
		inputs: walkPool,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// sequence is a run's request stream: request i is a pure function of the
// seed and i. Generated requests are memoized so clients never pay for
// generation twice; prepare generates ahead of the timed phases.
type sequence struct {
	gen func(i int) (*request, error)

	mu   sync.Mutex
	memo []*request
}

func (s *sequence) at(i int) (*request, error) {
	s.mu.Lock()
	if i < len(s.memo) && s.memo[i] != nil {
		r := s.memo[i]
		s.mu.Unlock()
		return r, nil
	}
	s.mu.Unlock()
	r, err := s.gen(i)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	for len(s.memo) <= i {
		s.memo = append(s.memo, nil)
	}
	s.memo[i] = r
	s.mu.Unlock()
	return r, nil
}

// release forgets requests [from, to) once a phase is over; at regenerates
// them if they are needed again.
func (s *sequence) release(from, to int) {
	s.mu.Lock()
	for i := from; i < min(to, len(s.memo)); i++ {
		s.memo[i] = nil
	}
	s.mu.Unlock()
}

// prepare generates requests [from, to) ahead of time.
func (s *sequence) prepare(from, to int) error {
	for i := from; i < to; i++ {
		if _, err := s.at(i); err != nil {
			return err
		}
	}
	return nil
}

func hotInputs(w *workload, seed int64) *sequence {
	pick := hotPicker(seed)
	return &sequence{gen: func(i int) (*request, error) { return w.entry(pick(i)) }}
}

// hotRank orders the 12 keys from hottest to coldest. It is fixed, not
// drawn from the seed, so that every seed offers the same cost mix and
// seeds differ only in which request comes when.
var hotRank = seqRand(0, "hot-rank", 0).Perm(12)

// hotDeckKeys is how many key draws one block of the hot-snippets schedule
// holds; each draw is sent as two annotate requests and one metrics
// request. At 48 every key is drawn at least once per block.
const hotDeckKeys = 48

// hotDeck is one block of the hot-snippets schedule as hot-pool indexes:
// key k of hotRank appears in proportion to Zipf(1.1) weight (k+1)^-1.1,
// rounded to hotDeckKeys draws by largest remainder, each as annotate,
// annotate, metrics.
var hotDeck = func() []int {
	weights := make([]float64, 12)
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -1.1)
		total += weights[k]
	}
	counts := make([]int, 12)
	rest := make([]int, 12)
	left := hotDeckKeys
	for k, wt := range weights {
		counts[k] = int(hotDeckKeys * wt / total)
		left -= counts[k]
		rest[k] = k
	}
	frac := func(k int) float64 { return hotDeckKeys*weights[k]/total - float64(counts[k]) }
	sort.SliceStable(rest, func(a, b int) bool { return frac(rest[a]) > frac(rest[b]) })
	for _, k := range rest[:left] {
		counts[k]++
	}
	var deck []int
	for k, c := range counts {
		for ; c > 0; c-- {
			deck = append(deck, hotRank[k], hotRank[k], hotRank[k]+12)
		}
	}
	return deck
}()

// hotPicker maps request i to a hot-pool index. The schedule is a run of
// blocks, each a seed-dependent shuffle of hotDeck, so every block offers
// exactly the same Zipf-skewed mix of keys and the 2:1 endpoint mix, and
// seeds differ only in order. Request i needs no state.
func hotPicker(seed int64) func(i int) int {
	return func(i int) int {
		n := len(hotDeck)
		return hotDeck[seqRand(seed, "hot", i/n).Perm(n)[i%n]]
	}
}

// walkPool walks the recorded pool block by block: the blocks of
// w.block consecutive entries in a seed-dependent order, and each block's
// entries in a seed-dependent order. The pool is laid out so that every
// block holds the same mix of request kinds, so every stretch of a run
// offers the same mix, different seeds send different subsets in different
// orders, and no entry repeats within a run. A run that needs more entries
// than the pool holds is invalid: every response must have a recorded
// reference.
func walkPool(w *workload, seed int64) *sequence {
	blocks := seqRand(seed, w.name, -1).Perm(w.poolSize / w.block)
	return &sequence{gen: func(i int) (*request, error) {
		if i >= w.poolSize {
			return nil, fmt.Errorf("the run needs more than the %d recorded %s entries; the run is invalid", w.poolSize, w.name)
		}
		b := blocks[i/w.block]
		return w.entry(b*w.block + seqRand(seed, w.name, b).Perm(w.block)[i%w.block])
	}}
}
