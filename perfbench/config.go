package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// workloadsJSON describes every workload: what it stresses, which layers
// do most and least of its work, and the parameters the benchmark runs
// it with. The benchmark reads its parameters from this file only.
//
//go:embed workloads.json
var workloadsJSON []byte

// workload is one entry of workloads.json.
type workload struct {
	Name      string   `json:"name"`
	Stresses  string   `json:"stresses"`
	MostWork  []string `json:"most_work"`
	LeastWork []string `json:"least_work"`
	// IdleObs lists the program's obs events the workload does not reach.
	IdleObs []string     `json:"idle_obs,omitempty"`
	Spheres *spheresSpec `json:"spheres,omitempty"`
	Serve   *serveSpec   `json:"serve,omitempty"`
}

// spheresSpec runs the paper's spheres problem: one linear solve
// (NewtonSteps = 0) or the whole Newton crush. RTol and Step apply to the
// linear solve; the crush uses the paper's Newton tolerances.
type spheresSpec struct {
	ElemsPerLayer int     `json:"elems_per_layer"`
	Ranks         int     `json:"ranks"`
	RTol          float64 `json:"rtol"`
	// Step scales the crush displacement at which the linear tangent is
	// assembled (0.1: the first of the paper's ten steps).
	Step        float64    `json:"step"`
	NewtonSteps int        `json:"newton_steps"`
	SetupReps   int        `json:"setup_reps"`
	Reference   *newtonRef `json:"reference,omitempty"`
}

// newtonRef is the recorded answer of the Newton crush.
type newtonRef struct {
	PlasticFrac float64 `json:"final_plastic_frac"`
	PlasticTol  float64 `json:"plastic_frac_abs_tol"`
	UNorm       float64 `json:"u_norm"`
	UNormRelTol float64 `json:"u_norm_rel_tol"`
}

// serveSpec drives an in-process solve service with open-loop traffic.
type serveSpec struct {
	Keys []serveKey `json:"keys"`
	// MixBlock is the number of requests over which the mix is exact.
	MixBlock       int       `json:"mix_block"`
	SetupReps      int       `json:"setup_reps"`
	NominalRPS     float64   `json:"nominal_rps"`
	LadderRPS      []float64 `json:"ladder_rps"`
	RungSeconds    float64   `json:"rung_seconds"`
	LatencyLimitMs float64   `json:"latency_limit_ms"`
}

// serveKey is one request class.
type serveKey struct {
	Problem   string  `json:"problem"`
	Size      int     `json:"size"`
	LoadScale float64 `json:"load_scale"`
	Weight    float64 `json:"weight"`
}

// weights returns the request-mix weight of each key.
func (s *serveSpec) weights() []float64 {
	w := make([]float64, len(s.Keys))
	for i, k := range s.Keys {
		w[i] = k.Weight
	}
	return w
}

// loadWorkloads parses workloads.json and checks it is usable.
func loadWorkloads(b []byte) (map[string]*workload, error) {
	var list []*workload
	if err := json.Unmarshal(b, &list); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	out := make(map[string]*workload, len(list))
	for _, w := range list {
		if w.Stresses == "" || len(w.MostWork) == 0 || len(w.LeastWork) == 0 {
			return nil, fmt.Errorf("workload %q: describe what it stresses and which layers do most and least of its work", w.Name)
		}
		if (w.Spheres == nil) == (w.Serve == nil) {
			return nil, fmt.Errorf("workload %q: want exactly one of spheres and serve", w.Name)
		}
		if sp := w.Spheres; sp != nil && sp.NewtonSteps > 0 && sp.Reference == nil {
			return nil, fmt.Errorf("workload %q: a Newton crush needs a reference answer", w.Name)
		}
		if sv := w.Serve; sv != nil {
			if sv.SetupReps < 1 || sv.MixBlock < 1 || sv.NominalRPS <= 0 || sv.RungSeconds <= 0 {
				return nil, fmt.Errorf("workload %q: bad traffic parameters", w.Name)
			}
		}
		out[w.Name] = w
	}
	return out, nil
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadBenchmarkFile reads BENCHMARK.json, rejecting unknown keys.
func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
