package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// arrival is one scheduled request: when it is due, relative to the start
// of its phase, and which request class it belongs to.
type arrival struct {
	Due time.Duration
	Key int
}

// schedule returns n open-loop arrivals at the given mean rate. Gaps are
// exponential (a Poisson process). The classes come in blocks of block
// requests; each block holds every class's share of the block (largest
// remainder) in a seeded random order. The mix of the whole schedule is
// then exact up to one block, and a class's reuse distance varies little
// from seed to seed, so a percentile that lies inside one latency class
// stays inside it.
func schedule(seed int64, rate float64, n, block int, weights []float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, n)
	var t float64
	var keys []int
	for i := range out {
		if len(keys) == 0 {
			keys = mixCounts(block, weights)
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		}
		t += rng.ExpFloat64() / rate
		out[i] = arrival{Due: time.Duration(t * float64(time.Second)), Key: keys[0]}
		keys = keys[1:]
	}
	return out
}

// mixCounts splits n requests over classes in proportion to weights by
// the largest-remainder rule and returns the class of each request.
func mixCounts(n int, weights []float64) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := float64(n) * w / sum
		counts[i] = int(math.Floor(exact))
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for i := 0; i < left; i++ {
		counts[order[i]]++
	}
	keys := make([]int, 0, n)
	for i, c := range counts {
		for j := 0; j < c; j++ {
			keys = append(keys, i)
		}
	}
	return keys
}

// sample is one request's timing as the generator saw it.
type sample struct {
	Sent    bool // false: dropped before sending because the rung failed
	Latency time.Duration
	Lag     time.Duration // dispatcher lateness against the due time
}

// phaseStats summarises one open-loop phase.
type phaseStats struct {
	Samples []sample
	// BacklogGrowth is how many more requests waited for a connection,
	// on average, in the last quarter of the phase than in the first.
	BacklogGrowth float64
	// BacklogGrew reports a growth of more than two requests per
	// connection and more than a tenth of the phase's requests.
	BacklogGrew bool
}

// openLoop sends the arrivals on schedule over the benchmark's
// connections. A dispatcher hands each arrival to the workers when it
// falls due; if every connection is busy it waits in a queue, and that
// wait counts in its latency because latency is timed from the due time.
// send performs one request and is called from one goroutine per
// connection. If the queue still
// holds more than dropAbove arrivals when the schedule ends, they are
// dropped unsent: the system is past its capacity and waiting for them
// would only lengthen the run.
func openLoop(arrivals []arrival, dropAbove int, send func(i int, a arrival)) phaseStats {
	type item struct {
		i   int
		due time.Time
	}
	queue := make(chan item, len(arrivals)) // sized to the schedule: the dispatcher never blocks
	samples := make([]sample, len(arrivals))
	var (
		mu   sync.Mutex
		drop bool
	)
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				mu.Lock()
				skip := drop
				mu.Unlock()
				if skip {
					continue
				}
				send(it.i, arrivals[it.i])
				samples[it.i].Sent = true
				samples[it.i].Latency = time.Since(it.due)
			}
		}()
	}

	start := time.Now()
	depth := make([]int, len(arrivals))
	for i, a := range arrivals {
		due := start.Add(a.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		samples[i].Lag = time.Since(due)
		depth[i] = len(queue)
		queue <- item{i: i, due: due}
	}
	if len(queue) > dropAbove {
		mu.Lock()
		drop = true
		mu.Unlock()
	}
	close(queue)
	wg.Wait()
	q := len(depth) / 4
	growth := meanInt(depth[len(depth)-q:]) - meanInt(depth[:q])
	return phaseStats{
		Samples:       samples,
		BacklogGrowth: growth,
		BacklogGrew:   growth > math.Max(2*connections, float64(len(depth))/10),
	}
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}
