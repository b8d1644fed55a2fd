package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// nameRE is the grammar of metric and workload names: a letter or digit
// first, then letters, digits, '_', '.' or '-', at most 64 in all.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(name string) bool { return nameRE.MatchString(name) }

func TestMetricNameGrammar(t *testing.T) {
	for _, name := range []string{"setup_s", "multigrid.apply_s", "obs.mg.setup.galerkin_s", "p-50", "9lives"} {
		if !validName(name) {
			t.Errorf("validName(%q) = false, want true", name)
		}
	}
	for _, name := range []string{"", "_x", ".x", "a b", "a/b", "ms%", "é", strings.Repeat("a", 65)} {
		if validName(name) {
			t.Errorf("validName(%q) = true, want false", name)
		}
	}
	bf := readBenchmarkFile(t)
	for _, m := range append(append([]metricSpec{}, bf.EndToEnd...), bf.PerLayer...) {
		if !validName(m.Name) {
			t.Errorf("BENCHMARK.json metric %q breaks the name grammar", m.Name)
		}
	}
}

func TestTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	if v, ok := tailPercentile(xs, 0.9); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v (tail ok %v), want 90 with 10 beyond", v, ok)
	}
	if v, _ := tailPercentile(xs, 0.5); v != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", v)
	}
	if _, ok := tailPercentile(xs[:99], 0.9); ok {
		t.Error("p90 of 99 samples has 9 beyond it, want the tail rule to fail")
	}
	if _, ok := tailPercentile(xs, 0.99); ok {
		t.Error("p99 of 100 samples has 1 beyond it, want the tail rule to fail")
	}
}

func TestScheduleRepeatsForSeed(t *testing.T) {
	w := []float64{0.25, 0.55, 0.20}
	a, b := schedule(7, 25, 200, 20, w), schedule(7, 25, 200, 20, w)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 25, 200, 20, w)) {
		t.Fatal("different seeds gave the same schedule")
	}
	counts := make([]int, len(w))
	for i, ar := range a {
		counts[ar.Key]++
		if i > 0 && ar.Due < a[i-1].Due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
	}
	if !reflect.DeepEqual(counts, []int{50, 110, 40}) {
		t.Errorf("class counts %v, want the exact mix [50 110 40]", counts)
	}
}

func TestMixCountsSumToN(t *testing.T) {
	w := []float64{0.2, 0.6, 0.2, 1.0 / 3, 0.05}
	for _, n := range []int{1, 7, 60, 100, 101} {
		if got := len(mixCounts(n, w)); got != n {
			t.Errorf("mixCounts(%d) made %d requests", n, got)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	arr := schedule(1, 200, 40, 1, []float64{1})
	var inFlight, maxInFlight atomic.Int32
	st := openLoop(arr, len(arr), func(int, arrival) {
		n := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond) // at most 100 rps capacity against 200 rps offered
		inFlight.Add(-1)
	})
	if maxInFlight.Load() > connections {
		t.Errorf("%d requests in flight, want at most %d", maxInFlight.Load(), connections)
	}
	if !st.BacklogGrew {
		t.Error("offered twice the capacity, want the backlog to grow")
	}
	last := st.Samples[len(st.Samples)-1]
	if !last.Sent || last.Latency < 50*time.Millisecond {
		t.Errorf("last request latency %v: want it to include the backlog wait", last.Latency)
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "child", StartNs: 10, EndNs: 50},
		{ID: 3, Parent: 1, Name: "child", StartNs: 40, EndNs: 70}, // overlaps span 2
	}
	self := selfTimes(spans)
	if self["root"] != 40 || self["child"] != 70 {
		t.Errorf("self times %v, want root 40 and child 70", self)
	}
}

// readBenchmarkFile parses the repository's BENCHMARK.json.
func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileSchema(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	if len(keys) != len(want) {
		t.Errorf("top-level keys %v, want exactly %v", keys, want)
	}
	bf := readBenchmarkFile(t)

	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Errorf("command has %d strings", len(bf.Command))
	}
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	for _, p := range bf.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("bad path %q", p)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", bf.RunSeconds)
	}

	wls, err := loadWorkloads(workloadsJSON)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	seen := map[string]bool{}
	for _, w := range bf.Workloads {
		if _, ok := wls[w.Name]; !ok {
			t.Errorf("workload %q is not in workloads.json", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
		if seen[w.Name] || !validName(w.Name) {
			t.Errorf("workload name %q repeated or malformed", w.Name)
		}
		seen[w.Name] = true
	}

	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, ms []metricSpec, min, max int, bounded bool) {
		if len(ms) < min || len(ms) > max {
			t.Errorf("%d %s metrics, want %d..%d", len(ms), kind, min, max)
		}
		for _, m := range ms {
			if seen[m.Name] {
				t.Errorf("name %q used twice", m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s metric %q: bad unit %q or better %q", kind, m.Name, m.Unit, m.Better)
			}
			if bounded != (m.Bound > 0) || m.Bound > 0.25 {
				t.Errorf("%s metric %q: bound %g", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, 1, 16, true)
	check("per_layer", bf.PerLayer, 1, 128, false)

	var setup *metricSpec
	for i := range bf.EndToEnd {
		if bf.EndToEnd[i].Name == "setup_s" {
			setup = &bf.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("want an end-to-end setup_s metric in s, lower is better")
	}
	// setup_s is exempt from the spread check, and carries the largest
	// bound, so that work moved into set-up shows.
	for _, m := range bf.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}
