package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call it makes. Parent is the ID of the enclosing span (0 at the
// root); spans of one request or one pipeline repetition share a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and its methods cost one branch, so the untraced run
// measures the same timers without the span bookkeeping.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its ID, or 0 when tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNs: now})
	return len(t.spans)
}

// finish closes the span begin returned.
func (t *tracer) finish(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns its wall time, which the
// benchmark measures whether or not tracing is on.
func (t *tracer) timed(name string, parent int, f func(id int)) time.Duration {
	id := t.begin(name, parent)
	t0 := time.Now()
	f(id)
	d := time.Since(t0)
	t.finish(id)
	return d
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover. Children of one parent may run
// concurrently, so the covered part is the union of their intervals.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		self := s.EndNs - s.StartNs - covered(children[s.ID], s.StartNs, s.EndNs)
		out[s.Name] += time.Duration(self)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
