package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"prometheus/internal/obs"
	"prometheus/internal/serve"
)

// promserve's shipped sizing: admission slots and hierarchy cache entries.
const (
	admissionSlots = 4
	cacheEntries   = 8
)

// Traffic constants of every serve workload. One connection keeps two
// solves from sharing the two cores' caches and memory bandwidth, which
// on a 2-vCPU host made p90 spread by a third from run to run. A phase
// whose generator lag p90 exceeds maxLagMs fails.
const (
	connections = 1
	maxLagMs    = 20
)

// Solve parameters of every request and of the reference solves.
const (
	reqRTol     = 1e-4
	reqMaxIters = 1000
	reqCycle    = "fmg"
)

// server is an in-process solve service on a loopback listener, with a
// client limited to the benchmark's connection count.
type server struct {
	svc    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func startServer() *server {
	svc := serve.New(serve.Config{
		MaxConcurrent:   admissionSlots,
		MaxCacheEntries: cacheEntries,
		Log:             slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(svc.Handler())
	tp := &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections}
	return &server{svc: svc, ts: ts, client: &http.Client{Transport: tp}}
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.svc.Close()
}

// getJSON decodes a GET endpoint's JSON body into v.
func (s *server) getJSON(path string, v interface{}) error {
	resp, err := s.client.Get(s.ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// solve posts one request for key k and returns the decoded response. A
// refused request (wait=false and no free admission slot) comes back as
// an error, like any other non-200 answer.
func (s *server) solve(k serveKey) (*serve.SolveResponse, error) {
	body, err := json.Marshal(serve.SolveRequest{
		Spec:      serve.Spec{Problem: k.Problem, Size: k.Size},
		LoadScale: k.LoadScale, RTol: reqRTol, MaxIters: reqMaxIters, Cycle: reqCycle,
	})
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Post(s.ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body) // best effort: only for the failure message
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var sr serve.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	return &sr, nil
}

// checked solves key i and verifies the answer against its reference
// hash, which a direct solve of the same key produced before timing.
func (s *server) checked(i int, keys []serveKey, refs []string) (*serve.SolveResponse, error) {
	sr, err := s.solve(keys[i])
	if err != nil {
		return nil, err
	}
	switch {
	case !sr.Converged || sr.Error != "":
		return sr, fmt.Errorf("did not converge: %s", sr.Error)
	case sr.SolutionHash != refs[i]:
		return sr, fmt.Errorf("solution hash %.12s…, direct solve gave %.12s…", sr.SolutionHash, refs[i])
	}
	return sr, nil
}

// served is one timed request's outcome.
type served struct {
	ok               bool
	setupMs, solveMs float64
	iters            int
}

// phase is the outcome of one open-loop phase against the server.
type phase struct {
	phaseStats
	out []served
	// hits and misses are the cache's deltas over the phase.
	hits, misses int64
}

// latenciesMs returns the latencies of the phase's sent requests; a
// failed request counts as +Inf, since it missed any latency limit.
func (p *phase) latenciesMs() []float64 {
	var xs []float64
	for i, s := range p.Samples {
		if !s.Sent {
			continue
		}
		v := s.Latency.Seconds() * 1e3
		if !p.out[i].ok {
			v = math.Inf(1)
		}
		xs = append(xs, v)
	}
	return xs
}

// runPhase sends the arrivals and checks every answer.
func runPhase(srv *server, sv *serveSpec, arrivals []arrival, dropAbove int, refs []string,
	tr *tracer, res *result) *phase {
	var h0, h1 serve.Health
	if err := srv.getJSON("/healthz", &h0); err != nil {
		res.fail("healthz: %v", err)
	}
	ph := &phase{out: make([]served, len(arrivals))}
	root := tr.begin("loadgen.phase", 0)
	var mu sync.Mutex
	ph.phaseStats = openLoop(arrivals, dropAbove, func(i int, a arrival) {
		id := tr.begin("loadgen.request", root)
		sr, err := srv.checked(a.Key, sv.Keys, refs)
		tr.finish(id)
		mu.Lock()
		defer mu.Unlock()
		res.attempted++
		if err != nil {
			res.fail("request %d (key %d): %v", i, a.Key, err)
			return
		}
		ph.out[i] = served{ok: true, iters: sr.Iterations,
			setupMs: float64(sr.SetupNs) / 1e6, solveMs: float64(sr.SolveNs) / 1e6}
	})
	tr.finish(root)
	if err := srv.getJSON("/healthz", &h1); err != nil {
		res.fail("healthz: %v", err)
	}
	ph.hits, ph.misses = h1.CacheHits-h0.CacheHits, h1.CacheMisses-h0.CacheMisses
	return ph
}

// serveWorkload runs a service workload: reference solves, set-up
// repetitions (server start plus cache fill), then open-loop traffic at
// the nominal rate for the whole budget. A traced run sends the nominal
// traffic for half the budget untraced and half traced, reports the
// per-layer metrics of the traced half, and then climbs the rate ladder.
func serveWorkload(sv *serveSpec, seed int64, budget time.Duration, traced bool, res *result) *tracer {
	tr := newTracer(traced)
	plain := newTracer(false)
	// promserve runs with the program's obs recording on.
	obsOn()
	defer obs.Disable()

	refs := make([]string, len(sv.Keys))
	for i, k := range sv.Keys {
		res.attempted++
		u, r, err := serve.DirectSolve(serve.Spec{Problem: k.Problem, Size: k.Size}, k.LoadScale,
			reqRTol, reqMaxIters, reqCycle, "", "")
		if err != nil || !r.Converged {
			res.fail("reference solve of key %d: %v (converged %v)", i, err, r != nil && r.Converged)
			return tr
		}
		refs[i] = serve.SolutionHash(u)
	}
	// Each set-up starts from a collected heap, so the reference solves'
	// and the previous server's garbage neither stretch the set-up time
	// nor raise the peak resident set.
	runtime.GC()

	var srv *server
	var setups []time.Duration
	for rep := 0; rep < sv.SetupReps; rep++ {
		if srv != nil {
			srv.close()
			runtime.GC()
		}
		root := tr.begin("serve.setup", 0)
		t0 := time.Now()
		tr.timed("serve.start", root, func(int) { srv = startServer() })
		tr.timed("serve.fill", root, func(id int) {
			for i := range sv.Keys {
				res.attempted++
				rid := tr.begin("loadgen.request", id)
				_, err := srv.checked(i, sv.Keys, refs)
				tr.finish(rid)
				if err != nil {
					res.fail("cache fill, key %d: %v", i, err)
				}
			}
		})
		setups = append(setups, time.Since(t0))
		tr.finish(root)
	}
	defer srv.close()

	weights := sv.weights()
	if traced {
		half := schedule(seed, sv.NominalRPS, int(sv.NominalRPS*budget.Seconds()/2), sv.MixBlock, weights)
		obs.Reset()
		base := runPhase(srv, sv, half, len(half), refs, plain, res)
		obs.Reset()
		ph := runPhase(srv, sv, half, len(half), refs, tr, res)
		recordServeLayers(ph, base, obs.Snapshot(), tr, res)
		res.set("loadgen.max_rate_rps", ladder(srv, sv, base, seed, weights, refs, res))
		return tr
	}

	nominal := schedule(seed, sv.NominalRPS, int(sv.NominalRPS*budget.Seconds()), sv.MixBlock, weights)
	ph := runPhase(srv, sv, nominal, len(nominal), refs, plain, res)
	printClasses(ph, nominal, len(sv.Keys))
	lat := ph.latenciesMs()
	p50, _ := tailPercentile(lat, 0.5)
	p90, ok := tailPercentile(lat, 0.9)
	if !ok {
		res.fail("%d requests at the nominal rate: p90 needs %d beyond it", len(lat), minTail)
	}
	if lag, _ := percentile(lagsMs(ph), 0.9); lag > maxLagMs {
		res.fail("generator fell behind: lag p90 %.2f ms > %d ms", lag, maxLagMs)
	}
	var solve, server []float64
	for _, o := range ph.out {
		if o.ok {
			solve = append(solve, o.solveMs/1e3)
			server = append(server, (o.setupMs+o.solveMs)/1e3)
		}
	}
	res.set("setup_s", median(seconds(setups)))
	res.set("solve_s", median(solve))
	res.set("time_to_solution_s", median(server))
	res.set("latency_p50_ms", p50)
	res.set("latency_p90_ms", p90)
	return tr
}

// printClasses lists, per request class, the latency and the part of it
// the server reports as set-up and solve.
func printClasses(ph *phase, arrivals []arrival, keys int) {
	for k := 0; k < keys; k++ {
		var lat, srv []float64
		for i, o := range ph.out {
			if arrivals[i].Key == k && o.ok {
				lat = append(lat, ph.Samples[i].Latency.Seconds()*1e3)
				srv = append(srv, o.setupMs+o.solveMs)
			}
		}
		l50, _ := percentile(lat, 0.5)
		l90, _ := percentile(lat, 0.9)
		fmt.Fprintf(os.Stderr, "perfbench: class %d: %d requests, latency p50 %.2f p90 %.2f ms, server set-up+solve p50 %.2f ms\n",
			k, len(lat), l50, l90, median(srv))
	}
}

func lagsMs(ph *phase) []float64 {
	var xs []float64
	for _, s := range ph.Samples {
		xs = append(xs, s.Lag.Seconds()*1e3)
	}
	return xs
}

// minRungRequests is the fewest requests a ladder rung sends.
const minRungRequests = 50

// ladder climbs the workload's fixed rate ladder above the nominal rate.
// Each rung sends RungSeconds of traffic, at least minRungRequests
// requests; the nominal phase is the first rung. It stops at the first
// rung whose p90 latency exceeds the limit, whose generator backlog grew,
// or which had to drop requests, and returns the rate at which p90
// reaches the limit, interpolated linearly between the last rung that met
// it and the first that did not (from zero if the nominal rate failed);
// the last passing rung if the failure was backlog rather than p90; the
// top rung if every rung passed. A rung's p90 only decides pass or fail
// and may have fewer than minTail samples beyond it.
func ladder(srv *server, sv *serveSpec, nominal *phase, seed int64, weights []float64, refs []string, res *result) float64 {
	prevRate, prevP90 := 0.0, 0.0
	ph := nominal
	for r := -1; r < len(sv.LadderRPS); r++ {
		rate := sv.NominalRPS
		if r >= 0 {
			rate = sv.LadderRPS[r]
			n := int(math.Max(minRungRequests, rate*sv.RungSeconds))
			arr := schedule(seed+int64(r)+1, rate, n, sv.MixBlock, weights)
			ph = runPhase(srv, sv, arr, n/4, refs, newTracer(false), res)
		}
		lat := ph.latenciesMs()
		p90, _ := percentile(lat, 0.9)
		dropped := len(ph.Samples) - len(lat)
		fmt.Fprintf(os.Stderr, "perfbench: rung %g rps: p90 %.1f ms, backlog grew %v, dropped %d, cache hits %d of %d\n",
			rate, p90, ph.BacklogGrew, dropped, ph.hits, ph.hits+ph.misses)
		switch {
		case p90 <= sv.LatencyLimitMs && !ph.BacklogGrew && dropped == 0:
			prevRate, prevP90 = rate, p90
		case p90 > sv.LatencyLimitMs && !math.IsInf(p90, 1):
			return prevRate + (rate-prevRate)*(sv.LatencyLimitMs-prevP90)/(p90-prevP90)
		default:
			return prevRate
		}
	}
	return prevRate
}

// recordServeLayers reports the traced nominal phase's per-layer figures.
func recordServeLayers(ph, base *phase, prof *obs.Profile, tr *tracer, res *result) {
	var solveMs, overMs []float64
	iters := 0
	for i, o := range ph.out {
		if !o.ok {
			continue
		}
		solveMs = append(solveMs, o.solveMs)
		overMs = append(overMs, ph.Samples[i].Latency.Seconds()*1e3-o.setupMs-o.solveMs)
		iters += o.iters
	}
	res.set("serve.solve_ms_p50", median(solveMs))
	res.set("serve.overhead_ms_p50", median(overMs))
	if n := ph.hits + ph.misses; n > 0 {
		res.set("serve.cache_hit_ratio", float64(ph.hits)/float64(n))
	}
	setupNs, setupCalls := obsTotals(prof, "mg.setup", res)
	res.set("multigrid.setup_s", float64(setupNs)/1e9)
	res.set("multigrid.setup_calls", float64(setupCalls))
	applyNs, applyCalls := obsTotals(prof, "mg.apply", res)
	res.set("multigrid.apply_s", float64(applyNs)/1e9)
	res.set("multigrid.apply_calls", float64(applyCalls))
	res.set("core.coarsen_s", obsSeconds(prof, "core.coarsen", res))
	res.set("krylov.fpcg_s", obsSeconds(prof, "krylov.fpcg", res))
	res.set("krylov.self_s", obsSeconds(prof, "krylov.fpcg", res)-float64(applyNs)/1e9)
	res.set("krylov.iters", float64(iters))
	recordObs(prof, 1, res)

	sent := 0
	for _, s := range ph.Samples {
		if s.Sent {
			sent++
		}
	}
	res.set("loadgen.sent", float64(sent))
	lag, _ := percentile(lagsMs(ph), 0.9)
	res.set("loadgen.lag_p90_ms", lag)
	res.set("loadgen.backlog_growth", ph.BacklogGrowth)
	p50, _ := percentile(ph.latenciesMs(), 0.5)
	b50, _ := percentile(base.latenciesMs(), 0.5)
	res.set("trace.overhead_frac", p50/b50-1)
	res.set("trace.spans", float64(len(tr.snapshot())))
}
