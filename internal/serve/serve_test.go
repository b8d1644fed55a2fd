package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"prometheus/internal/obs"
)

// newTestServer spins a service + httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// postSolve sends a solve request and decodes the (non-streamed) response.
func postSolve(t *testing.T, ts *httptest.Server, req SolveRequest) SolveResponse {
	t.Helper()
	resp, status := postSolveStatus(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("solve returned status %d: %+v", status, resp)
	}
	return resp
}

func postSolveStatus(t *testing.T, ts *httptest.Server, req SolveRequest) (SolveResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	hr, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/solve: %v", err)
	}
	defer hr.Body.Close()
	var out SolveResponse
	if err := json.NewDecoder(hr.Body).Decode(&out); err != nil {
		t.Fatalf("decode response (status %d): %v", hr.StatusCode, err)
	}
	return out, hr.StatusCode
}

// TestServeBitwiseIdentical is the end-to-end oracle: a served solve must
// be bitwise identical — solution vector, residual history, iteration
// count — to a direct solver run of the same spec.
func TestServeBitwiseIdentical(t *testing.T) {
	spec := Spec{Problem: "cube", Size: 1}
	uDirect, resDirect, err := DirectSolve(spec, 1, 1e-4, 1000, "fmg", "", "")
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}

	_, ts := newTestServer(t, Config{})
	got := postSolve(t, ts, SolveRequest{Spec: spec, ReturnSolution: true})

	if got.Iterations != resDirect.Iterations {
		t.Fatalf("served %d iterations, direct %d", got.Iterations, resDirect.Iterations)
	}
	if !got.Converged {
		t.Fatalf("served solve did not converge: %+v", got)
	}
	if len(got.Residuals) != len(resDirect.Residuals) {
		t.Fatalf("served %d residuals, direct %d", len(got.Residuals), len(resDirect.Residuals))
	}
	for i := range got.Residuals {
		if got.Residuals[i] != resDirect.Residuals[i] {
			t.Fatalf("residual %d differs: served %v direct %v", i, got.Residuals[i], resDirect.Residuals[i])
		}
	}
	if len(got.Solution) != len(uDirect) {
		t.Fatalf("served solution length %d, direct %d", len(got.Solution), len(uDirect))
	}
	for i := range uDirect {
		if got.Solution[i] != uDirect[i] {
			t.Fatalf("solution dof %d differs: served %v direct %v", i, got.Solution[i], uDirect[i])
		}
	}
	if want := SolutionHash(uDirect); got.SolutionHash != want {
		t.Fatalf("solution hash %s, direct %s", got.SolutionHash, want)
	}
}

// TestServeCacheSkipsSetup asserts the performance heart of the service:
// the second request for a geometry runs zero coarsening and zero
// multigrid setup — the obs phase counters for both must not move.
func TestServeCacheSkipsSetup(t *testing.T) {
	obs.EnableWith(obs.Config{})
	defer obs.Disable()

	_, ts := newTestServer(t, Config{})
	spec := Spec{Problem: "cantilever", Size: 1}

	first := postSolve(t, ts, SolveRequest{Spec: spec})
	if first.CacheHit {
		t.Fatalf("first request reported a cache hit")
	}
	if first.SetupNs <= 0 {
		t.Fatalf("first request reported setup_ns = %d, want > 0", first.SetupNs)
	}

	count := func(p *obs.Profile, name string) int64 {
		e, ok := p.Event(name)
		if !ok {
			return 0
		}
		return e.Totals().Count
	}
	before := obs.Snapshot()
	if count(before, "core.coarsen") == 0 {
		t.Fatalf("oracle broken: no core.coarsen events recorded by the cold request")
	}

	second := postSolve(t, ts, SolveRequest{Spec: spec})
	if !second.CacheHit {
		t.Fatalf("second request missed the cache: %+v", second)
	}
	if second.SetupNs != 0 {
		t.Fatalf("warm request reported setup_ns = %d, want 0", second.SetupNs)
	}
	after := obs.Snapshot()
	for _, ev := range []string{"core.coarsen", "mg.setup", "mg.setup.galerkin"} {
		if b, a := count(before, ev), count(after, ev); a != b {
			t.Fatalf("warm request ran setup phase %s: count %d -> %d", ev, b, a)
		}
	}
	if first.SolutionHash != second.SolutionHash {
		t.Fatalf("warm solution hash %s differs from cold %s", second.SolutionHash, first.SolutionHash)
	}
}

// TestServeStreaming checks the ndjson progress protocol: one line per
// residual, then the final response line, all well-formed.
func TestServeStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, err := json.Marshal(SolveRequest{Spec: Spec{Problem: "cube", Size: 1}, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(hr.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	if len(lines) < 2 {
		t.Fatalf("stream had %d lines, want progress + final", len(lines))
	}
	var final SolveResponse
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("final line not a SolveResponse: %v", err)
	}
	if !final.Converged || final.Error != "" {
		t.Fatalf("streamed solve failed: %+v", final)
	}
	progress := lines[:len(lines)-1]
	// One progress line per recorded residual (iteration 0 included).
	if len(progress) != len(final.Residuals) {
		t.Fatalf("%d progress lines for %d residuals", len(progress), len(final.Residuals))
	}
	for i, ln := range progress {
		var p Progress
		if err := json.Unmarshal([]byte(ln), &p); err != nil {
			t.Fatalf("progress line %d: %v", i, err)
		}
		if p.Iter != i {
			t.Fatalf("progress line %d has iter %d", i, p.Iter)
		}
		if p.Residual != final.Residuals[i] {
			t.Fatalf("streamed residual %d = %v, final history has %v", i, p.Residual, final.Residuals[i])
		}
	}
}

// TestServeConcurrentSessions races concurrent sessions against one
// cached hierarchy (run under -race in CI): every request must succeed
// and produce the identical solution hash.
func TestServeConcurrentSessions(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4})
	spec := Spec{Problem: "cube", Size: 1}
	// Warm the cache once so the racing requests share one entry.
	warm := postSolve(t, ts, SolveRequest{Spec: spec})

	const workers = 6
	const perWorker = 2
	hashes := make([][]string, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body, err := json.Marshal(SolveRequest{Spec: spec, Wait: true})
				if err != nil {
					errs <- err
					return
				}
				hr, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var out SolveResponse
				err = json.NewDecoder(hr.Body).Decode(&out)
				if cerr := hr.Body.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					errs <- err
					return
				}
				if hr.StatusCode != http.StatusOK || !out.Converged {
					errs <- fmt.Errorf("worker %d request %d: status %d converged %v", w, i, hr.StatusCode, out.Converged)
					return
				}
				hashes[w] = append(hashes[w], out.SolutionHash)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w, hs := range hashes {
		for i, h := range hs {
			if h != warm.SolutionHash {
				t.Fatalf("worker %d request %d hash %s, want %s", w, i, h, warm.SolutionHash)
			}
		}
	}
}

// TestServeHealthAndDebug smoke-tests the observability surface: healthz,
// session/cache listings and the /debug endpoints all answer on the one
// mux.
func TestServeHealthAndDebug(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_ = postSolve(t, ts, SolveRequest{Spec: Spec{Problem: "cube", Size: 1}})

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	err = json.NewDecoder(hr.Body).Decode(&h)
	if cerr := hr.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: status %d %+v", hr.StatusCode, h)
	}
	if h.Requests < 1 || h.TotalSessions < 1 || h.CacheEntries < 1 || h.CacheMisses < 1 {
		t.Fatalf("healthz counters not advancing: %+v", h)
	}
	if h.ActiveSessions != 0 {
		t.Fatalf("healthz reports %d active sessions after completion", h.ActiveSessions)
	}

	var sb sessionsBody
	getJSON(t, ts.URL+"/v1/sessions", &sb)
	if sb.Total < 1 || len(sb.Active) != 0 {
		t.Fatalf("sessions listing: %+v", sb)
	}

	var cb cacheBody
	getJSON(t, ts.URL+"/v1/cache", &cb)
	if len(cb.Entries) != 1 || cb.Misses != 1 {
		t.Fatalf("cache listing: %+v", cb)
	}
	if cb.Entries[0].Fingerprint == "" || cb.Entries[0].Levels < 1 {
		t.Fatalf("cache entry missing fields: %+v", cb.Entries[0])
	}

	for _, path := range []string{"/debug/vars", "/debug/pprof/cmdline"} {
		dr, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if cerr := dr.Body.Close(); cerr != nil {
			t.Fatalf("close %s body: %v", path, cerr)
		}
		if dr.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, dr.StatusCode)
		}
	}
}

func getJSON(t *testing.T, url string, v interface{}) {
	t.Helper()
	hr, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(hr.Body).Decode(v)
	if cerr := hr.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestServeRequestValidation covers the 4xx paths.
func TestServeRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	if _, status := postSolveStatus(t, ts, SolveRequest{Spec: Spec{Problem: "torus", Size: 1}}); status != http.StatusBadRequest {
		t.Fatalf("unknown problem: status %d, want 400", status)
	}
	if _, status := postSolveStatus(t, ts, SolveRequest{Spec: Spec{Problem: "cube", Size: 99}}); status != http.StatusBadRequest {
		t.Fatalf("oversized problem: status %d, want 400", status)
	}
	if _, status := postSolveStatus(t, ts, SolveRequest{Spec: Spec{Problem: "cube", Size: 1}, Cycle: "x"}); status != http.StatusBadRequest {
		t.Fatalf("unknown cycle: status %d, want 400", status)
	}
	if _, status := postSolveStatus(t, ts, SolveRequest{Spec: Spec{Problem: "cube", Size: 1}, Storage: "coo"}); status != http.StatusBadRequest {
		t.Fatalf("unknown storage: status %d, want 400", status)
	}
	if _, status := postSolveStatus(t, ts, SolveRequest{Spec: Spec{Problem: "cube", Size: 1}, Precision: "f16"}); status != http.StatusBadRequest {
		t.Fatalf("unknown precision: status %d, want 400", status)
	}

	hr, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	if cerr := hr.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if hr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve: status %d, want 405", hr.StatusCode)
	}
}
