package serve

import (
	"context"
	"errors"
	"testing"

	prometheus "prometheus"
)

func TestAdmissionSemaphore(t *testing.T) {
	a := newAdmission(2)
	ctx := context.Background()
	if err := a.Acquire(ctx, false); err != nil {
		t.Fatalf("acquire 1: %v", err)
	}
	if err := a.Acquire(ctx, false); err != nil {
		t.Fatalf("acquire 2: %v", err)
	}
	if err := a.Acquire(ctx, false); !errors.Is(err, ErrBusy) {
		t.Fatalf("acquire 3 = %v, want ErrBusy", err)
	}
	a.Release()
	if err := a.Acquire(ctx, false); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := a.Acquire(cctx, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting acquire on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestAdmissionReleaseWithoutAcquirePanics(t *testing.T) {
	a := newAdmission(1)
	defer func() {
		if recover() == nil {
			t.Fatal("unpaired Release did not panic")
		}
	}()
	a.Release()
}

func TestAdmissionClampsToCap(t *testing.T) {
	a := newAdmission(admissionCap + 100)
	ctx := context.Background()
	for i := 0; i < admissionCap; i++ {
		if err := a.Acquire(ctx, false); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	if err := a.Acquire(ctx, false); !errors.Is(err, ErrBusy) {
		t.Fatalf("acquire past cap = %v, want ErrBusy", err)
	}
}

func TestSessionManager(t *testing.T) {
	m := newSessionManager()
	s1 := m.Checkout("cube", 1, nil)
	s2 := m.Checkout("cantilever", 2, nil)
	s1.setKey("k1")
	live, total, _ := m.snapshot()
	if len(live) != 2 || total != 2 {
		t.Fatalf("live %d total %d, want 2/2", len(live), total)
	}
	if live[0].ID != s1.id || live[1].ID != s2.id {
		t.Fatalf("snapshot not id-ordered: %+v", live)
	}
	if live[0].Key != "k1" {
		t.Fatalf("session key not recorded: %+v", live[0])
	}
	m.Checkin(s1)
	m.Checkin(s2)
	live, total, longest := m.snapshot()
	if len(live) != 0 || total != 2 || longest <= 0 {
		t.Fatalf("after checkin: live %d total %d longest %v", len(live), total, longest)
	}
}

func TestCacheEvictionLRU(t *testing.T) {
	c := newHierCache(2)
	opts := prometheus.Options{}
	specs := []Spec{
		{Problem: "cube", Size: 1},
		{Problem: "cantilever", Size: 1},
		{Problem: "cube", Size: 2},
	}
	keys := make([]string, len(specs))
	for i, sp := range specs {
		g, err := BuildGeometry(sp)
		if err != nil {
			t.Fatal(err)
		}
		fp := g.Fingerprint(opts.Coarsen)
		keys[i] = cacheKey(fp, "fmg", opts, 1)
		e, hit, err := c.Acquire(keys[i], fp, g, 1, opts)
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if hit {
			t.Fatalf("acquire %d reported hit on first use", i)
		}
		c.Release(e)
	}
	infos, hits, misses, _ := c.snapshot()
	if len(infos) != 2 {
		t.Fatalf("cache holds %d entries, want 2 after eviction", len(infos))
	}
	if hits != 0 || misses != 3 {
		t.Fatalf("hits %d misses %d, want 0/3", hits, misses)
	}
	// The oldest entry (specs[0]) must be the evicted one.
	for _, info := range infos {
		if info.Key == keys[0] {
			t.Fatalf("LRU entry %s survived eviction", keys[0])
		}
	}
	// Re-acquiring the survivor is a hit.
	g, err := BuildGeometry(specs[1])
	if err != nil {
		t.Fatal(err)
	}
	fp := g.Fingerprint(opts.Coarsen)
	e, hit, err := c.Acquire(keys[1], fp, g, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("survivor entry re-acquire missed")
	}
	c.Release(e)
}

func TestCachePinnedEntryNotEvicted(t *testing.T) {
	c := newHierCache(1)
	opts := prometheus.Options{}
	g1, err := BuildGeometry(Spec{Problem: "cube", Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	fp1 := g1.Fingerprint(opts.Coarsen)
	e1, _, err := c.Acquire(cacheKey(fp1, "fmg", opts, 1), fp1, g1, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	// e1 still referenced: inserting a second entry must not evict it.
	g2, err := BuildGeometry(Spec{Problem: "cantilever", Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	fp2 := g2.Fingerprint(opts.Coarsen)
	e2, _, err := c.Acquire(cacheKey(fp2, "fmg", opts, 1), fp2, g2, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	infos, _, _, _ := c.snapshot()
	if len(infos) != 2 {
		t.Fatalf("pinned entry evicted: %d entries", len(infos))
	}
	c.Release(e1)
	c.Release(e2)
	c.sweep()
	infos, _, _, _ = c.snapshot()
	if len(infos) != 1 {
		t.Fatalf("sweep kept %d entries, want 1", len(infos))
	}
}

// TestCacheKeyDistinguishesVariants is the cache-correctness regression
// test for the key derivation: every request parameter that changes the
// cached setup products — fingerprint, cycle, load scale, storage mode,
// coarse precision — must land in the key. A shared key across storage
// modes would hand one request a cached BSR hierarchy when it asked for
// a CSR one (or vice versa); a shared key across
// precisions would serve float32 coarse grids to a full-precision solve.
func TestCacheKeyDistinguishesVariants(t *testing.T) {
	mustOpts := func(storage, precision string) prometheus.Options {
		t.Helper()
		opts, err := solverOptions(1e-4, 100, "fmg", storage, precision)
		if err != nil {
			t.Fatal(err)
		}
		return opts
	}
	def := mustOpts("", "")
	keys := map[string]bool{
		cacheKey("fp", "fmg", def, 1):                    true,
		cacheKey("fp", "v", def, 1):                      true,
		cacheKey("fp", "fmg", def, 2):                    true,
		cacheKey("fp2", "fmg", def, 1):                   true,
		cacheKey("fp", "fmg", mustOpts("csr", ""), 1):    true,
		cacheKey("fp", "fmg", mustOpts("bsr", ""), 1):    true,
		cacheKey("fp", "fmg", mustOpts("", "f32"), 1):    true,
		cacheKey("fp", "fmg", mustOpts("bsr", "f32"), 1): true,
	}
	if len(keys) != 8 {
		t.Fatalf("cache key variants collide: %v", keys)
	}
	// Equivalent spellings of the defaults must share a key: the label is
	// derived from the resolved options, not the raw request strings.
	if cacheKey("fp", "fmg", mustOpts("auto", "f64"), 1) != cacheKey("fp", "fmg", def, 1) {
		t.Fatal("canonical default spellings produced distinct cache keys")
	}
}

func TestMGLeasePool(t *testing.T) {
	c := newHierCache(1)
	opts := prometheus.Options{}
	g, err := BuildGeometry(Spec{Problem: "cube", Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	fp := g.Fingerprint(opts.Coarsen)
	e, _, err := c.Acquire(cacheKey(fp, "fmg", opts, 1), fp, g, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(e)

	mg1, err := e.Checkout()
	if err != nil {
		t.Fatal(err)
	}
	if e.builds.Load() != 1 {
		t.Fatalf("builds = %d after pool checkout, want 1 (the build-time instance)", e.builds.Load())
	}
	// Pool empty now: a second checkout constructs a fresh instance.
	mg2, err := e.Checkout()
	if err != nil {
		t.Fatal(err)
	}
	if mg1 == mg2 {
		t.Fatal("concurrent checkouts returned the same multigrid instance")
	}
	if e.builds.Load() != 2 {
		t.Fatalf("builds = %d after empty-pool checkout, want 2", e.builds.Load())
	}
	e.Checkin(mg1)
	e.Checkin(mg2)
	// Both instances idle: the next checkout reuses, no new build.
	mg3, err := e.Checkout()
	if err != nil {
		t.Fatal(err)
	}
	e.Checkin(mg3)
	if e.builds.Load() != 2 {
		t.Fatalf("builds = %d after warm checkout, want 2", e.builds.Load())
	}
}

func TestSolverOptionsValidation(t *testing.T) {
	if _, err := solverOptions(1e-4, 100, "spiral", "", ""); err == nil {
		t.Fatal("unknown cycle accepted")
	}
	for _, st := range []string{"ebe", "mf"} {
		if _, err := solverOptions(1e-4, 100, "fmg", st, ""); err == nil {
			t.Fatalf("unknown storage %q accepted", st)
		}
	}
	if _, err := solverOptions(1e-4, 100, "fmg", "", "f16"); err == nil {
		t.Fatal("unknown precision accepted")
	}
	for _, cyc := range []string{"", "fmg", "v", "w"} {
		if _, err := solverOptions(1e-4, 100, cyc, "", ""); err != nil {
			t.Fatalf("cycle %q rejected: %v", cyc, err)
		}
	}
	for _, st := range []string{"", "auto", "csr", "bsr"} {
		if _, err := solverOptions(1e-4, 100, "fmg", st, ""); err != nil {
			t.Fatalf("storage %q rejected: %v", st, err)
		}
	}
	for _, pr := range []string{"", "f64", "f32"} {
		if _, err := solverOptions(1e-4, 100, "fmg", "", pr); err != nil {
			t.Fatalf("precision %q rejected: %v", pr, err)
		}
	}
}

func TestGeometryFingerprintStable(t *testing.T) {
	spec := Spec{Problem: "cube", Size: 1}
	g1, err := BuildGeometry(spec)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := BuildGeometry(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := prometheus.Options{}
	if g1.Fingerprint(opts.Coarsen) != g2.Fingerprint(opts.Coarsen) {
		t.Fatal("two builds of one spec fingerprint differently")
	}
	g3, err := BuildGeometry(Spec{Problem: "cube", Size: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g1.Fingerprint(opts.Coarsen) == g3.Fingerprint(opts.Coarsen) {
		t.Fatal("different sizes share a fingerprint")
	}
}
