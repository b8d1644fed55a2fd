// Command perfbench is the repository's benchmark. It runs one workload
// against the public entry points of each layer, checks every answer, and
// prints every metric by name with its unit. The workloads are described
// in workloads.json, the metrics in BENCHMARK.json at the repository root;
// README.md maps each per-layer metric to the end-to-end metric it moves.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run measures the end-to-end metrics with the
// benchmark's spans off. With --trace 1 it runs the workload twice, first
// untraced and then with spans on, and prints the per-layer metrics, the
// layers' self times and the tracing overhead; the spans are written to
// .bench_build/trace/.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The exit code is non-zero when any operation failed or any answer was
// wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// result collects one run's metrics and its failures.
type result struct {
	m         map[string]float64
	idleObs   map[string]bool // obs events the workload does not reach
	attempted int
	failed    int
	problems  []string
}

func (r *result) set(name string, v float64) { r.m[name] = v }

// fail records one failed operation.
func (r *result) fail(format string, args ...interface{}) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name (see workloads.json)")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	secs := flag.Float64("seconds", 30, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()

	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	wls, err := loadWorkloads(workloadsJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w, ok := wls[*name]
	if !ok || *secs <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *secs, *traceFlag)
		return 2
	}
	traced := *traceFlag == 1
	budget := time.Duration(*secs * float64(time.Second))

	res := &result{m: map[string]float64{}, idleObs: map[string]bool{}}
	for _, e := range w.IdleObs {
		res.idleObs[e] = true
	}
	var tr *tracer
	if w.Spheres != nil {
		tr = spheresWorkload(w.Spheres, *seed, budget, traced, res)
	} else {
		tr = serveWorkload(w.Serve, *seed, budget, traced, res)
	}
	if rss, err := peakRSSMB(); err == nil {
		res.set("peak_rss_mb", rss)
	} else {
		res.fail("peak RSS: %v", err)
	}
	if traced {
		dir := filepath.Join(".bench_build", "trace")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.Name, *seed))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			err = tr.write(path)
		}
		if err != nil {
			res.fail("writing spans: %v", err)
		} else {
			fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
		}
	}

	declared := bf.EndToEnd
	if traced {
		declared = bf.PerLayer
	}
	metrics := map[string]interface{}{}
	for _, ms := range declared {
		v, ok := res.m[ms.Name]
		switch {
		case !ok && !traced:
			res.fail("end-to-end metric %s was not measured", ms.Name)
			continue
		case !ok:
			// The layer is not reached on this workload, or is not
			// visible from outside the program.
			v = 0
		case math.IsNaN(v) || math.IsInf(v, 0):
			res.fail("metric %s is %v", ms.Name, v)
			continue
		}
		metrics[ms.Name] = map[string]interface{}{"value": v, "unit": ms.Unit}
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	printHuman(res.m)
	correct := res.failed == 0
	if res.attempted < 1 {
		res.attempted = 1
		correct = false
	}
	out, err := json.Marshal(map[string]interface{}{
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// printHuman lists every measured figure, sorted by name, ahead of the
// JSON line.
func printHuman(m map[string]float64) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %.6g\n", n, m[n])
	}
}
