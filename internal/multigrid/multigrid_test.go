package multigrid

import (
	"errors"
	"math"
	"testing"

	"prometheus/internal/core"
	"prometheus/internal/direct"
	"prometheus/internal/fem"
	"prometheus/internal/geom"
	"prometheus/internal/krylov"
	"prometheus/internal/la"
	"prometheus/internal/material"
	"prometheus/internal/mesh"
	"prometheus/internal/sparse"
)

// buildElasticity assembles the reduced system for an n³ cube with the
// bottom face fixed and a downward surface load on top, plus the compressed
// restriction chain.
func buildElasticity(t *testing.T, n int, coarsenOpts core.Options) (*sparse.CSR, []float64, []*sparse.CSR) {
	t.Helper()
	m := mesh.StructuredHex(n, n, n, 1, 1, 1, nil)
	p := fem.NewProblem(m, []material.Model{material.LinearElastic{E: 1, Nu: 0.3}}, false)
	k, _, err := p.AssembleTangent(make([]float64, m.NumDOF()))
	if err != nil {
		t.Fatal(err)
	}
	c := fem.NewConstraints()
	for _, v := range m.VertsWhere(func(q geom.Vec3) bool { return q.Z == 0 }) {
		c.FixVert(v, 0, 0, 0)
	}
	f := make([]float64, m.NumDOF())
	for _, v := range m.VertsWhere(func(q geom.Vec3) bool { return q.Z == 1 }) {
		f[3*v+2] = -0.001
	}
	dm := c.NewDofMap(m.NumDOF())
	kr, fr := c.Reduce(k, f, dm)

	h, err := core.Coarsen(m, coarsenOpts)
	if err != nil {
		t.Fatal(err)
	}
	var rs []*sparse.CSR
	for l := 1; l < h.NumLevels(); l++ {
		r := h.Grids[l].R
		if l == 1 {
			r = CompressCols(r, dm.Full2Red, dm.NumFree())
		}
		rs = append(rs, r)
	}
	return kr, fr, rs
}

func TestCompressCols(t *testing.T) {
	b := sparse.NewBuilder(2, 4)
	b.Add(0, 0, 1)
	b.Add(0, 2, 2)
	b.Add(1, 3, 3)
	r := b.Build()
	full2red := []int{0, -1, 1, -1}
	cr := CompressCols(r, full2red, 2)
	if cr.NCols != 2 || cr.At(0, 0) != 1 || cr.At(0, 1) != 2 || cr.At(1, 1) != 0 {
		t.Fatalf("compress wrong: %+v", cr)
	}
}

func TestMGSolveMatchesDirect(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	if len(rs) == 0 {
		t.Fatal("no coarse levels")
	}
	mg, err := New(k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k.NRows)
	cycles, rel := mg.Solve(f, x, 1e-10, 100)
	if rel > 1e-10 {
		t.Fatalf("MG stalled: rel = %v after %d cycles", rel, cycles)
	}
	// Compare with the sparse direct solution.
	ch, err := direct.New(k)
	if err != nil {
		t.Fatal(err)
	}
	xd := make([]float64, k.NRows)
	ch.Solve(f, xd)
	diff := 0.0
	for i := range x {
		diff += (x[i] - xd[i]) * (x[i] - xd[i])
	}
	if math.Sqrt(diff) > 1e-7*(1+la.Norm2(xd)) {
		t.Fatalf("MG and direct disagree by %v", math.Sqrt(diff))
	}
	if mg.Flops() <= 0 || mg.SetupFlops <= 0 {
		t.Fatal("flops not counted")
	}
}

func TestPCGWithMGBeatsPlainCG(t *testing.T) {
	k, f, rs := buildElasticity(t, 5, core.Options{MinCoarse: 30})
	mg, err := New(k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k.NRows)
	pcg := krylov.FPCG(k, f, x, mg, 1e-8, 200)
	if !pcg.Converged {
		t.Fatalf("MG-PCG did not converge in %d its", pcg.Iterations)
	}
	x2 := make([]float64, k.NRows)
	plain := krylov.CG(k, f, x2, 1e-8, 20000)
	if !plain.Converged {
		t.Fatal("plain CG did not converge")
	}
	if pcg.Iterations*3 > plain.Iterations {
		t.Fatalf("MG-PCG (%d its) should dominate CG (%d its)", pcg.Iterations, plain.Iterations)
	}
	t.Logf("MG-PCG %d its vs CG %d its", pcg.Iterations, plain.Iterations)
}

func TestIterationCountRoughlyFlat(t *testing.T) {
	// Table 2 shape: MG-PCG iterations stay bounded as the mesh refines.
	var its []int
	for _, n := range []int{3, 4, 6} {
		k, f, rs := buildElasticity(t, n, core.Options{MinCoarse: 30})
		var mg *MG
		var err error
		if len(rs) == 0 {
			t.Fatalf("n=%d: no coarsening", n)
		}
		mg, err = New(k, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, k.NRows)
		res := krylov.FPCG(k, f, x, mg, 1e-6, 300)
		if !res.Converged {
			t.Fatalf("n=%d: not converged", n)
		}
		its = append(its, res.Iterations)
	}
	t.Logf("iterations across sizes: %v", its)
	for _, it := range its {
		if it > 60 {
			t.Fatalf("iteration count blow-up: %v", its)
		}
	}
	// Growth from smallest to largest must be mild (paper actually sees a
	// decrease).
	if float64(its[2]) > 2.5*float64(its[0])+5 {
		t.Fatalf("iterations not flat: %v", its)
	}
}

func TestVCycleAndFMGBothWork(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	for _, cyc := range []CycleKind{VCycle, FMG} {
		mg, err := New(k, rs, Options{Cycle: cyc})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, k.NRows)
		res := krylov.FPCG(k, f, x, mg, 1e-8, 200)
		if !res.Converged {
			t.Fatalf("cycle %v did not converge", cyc)
		}
	}
}

func TestSmootherVariants(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	for _, s := range []SmootherKind{DomainBlockJacobiCG, DomainBlockJacobi, Jacobi, GaussSeidel, Chebyshev} {
		mg, err := New(k, rs, Options{Smoother: s, Cycle: VCycle})
		if err != nil {
			t.Fatalf("smoother %v: %v", s, err)
		}
		x := make([]float64, k.NRows)
		res := krylov.FPCG(k, f, x, mg, 1e-8, 400)
		if !res.Converged {
			t.Fatalf("smoother %v did not converge", s)
		}
	}
}

func TestOperatorComplexityModest(t *testing.T) {
	k, _, rs := buildElasticity(t, 5, core.Options{MinCoarse: 30})
	mg, err := New(k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oc := mg.OperatorComplexity()
	if oc < 1 || oc > 3.5 {
		t.Fatalf("operator complexity = %v", oc)
	}
	if mg.NumLevels() != len(rs)+1 {
		t.Fatal("level count mismatch")
	}
}

func TestGalerkinOperatorsSymmetric(t *testing.T) {
	k, _, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	mg, err := New(k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range mg.Levels {
		if !opSymmetric(l.A, 1e-8) {
			t.Fatalf("level %d operator not symmetric", li)
		}
	}
}

// TestStorageParity pins the central refactor invariant: switching the
// hierarchy from scalar CSR to node-block BSR changes only the storage
// layout, never the arithmetic. Galerkin products, smoother sweeps and
// the Krylov iteration must produce bitwise-identical solutions and the
// exact same iteration count.
func TestStorageParity(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	solve := func(st StorageKind) ([]float64, int) {
		mg, err := New(k, rs, Options{Storage: st})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, k.NRows)
		res := krylov.FPCG(k, f, x, mg, 1e-8, 400)
		if !res.Converged {
			t.Fatalf("storage %v did not converge", st)
		}
		return x, res.Iterations
	}
	xc, ic := solve(StorageCSR)
	xb, ib := solve(StorageBSR)
	if ic != ib {
		t.Fatalf("iteration counts differ: CSR %d vs BSR %d", ic, ib)
	}
	for i := range xc {
		if math.Float64bits(xc[i]) != math.Float64bits(xb[i]) {
			t.Fatalf("solutions differ at dof %d: %v vs %v", i, xc[i], xb[i])
		}
	}
	// The BSR hierarchy must actually be blocked on the fine level.
	mg, err := New(k, rs, Options{Storage: StorageBSR})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mg.Levels[0].A.(*sparse.BSR); !ok {
		t.Fatalf("fine level is %T, want *sparse.BSR", mg.Levels[0].A)
	}
}

// TestNodeBlockJacobiSmootherConverges exercises the BSR-only smoother
// end to end: it requires blocked storage and must reject CSR.
func TestNodeBlockJacobiSmootherConverges(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	if _, err := New(k, rs, Options{Smoother: NodeBlockJacobi, Storage: StorageCSR}); err == nil {
		t.Fatal("NodeBlockJacobi on CSR storage should fail")
	}
	mg, err := New(k, rs, Options{Smoother: NodeBlockJacobi, Storage: StorageBSR})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k.NRows)
	res := krylov.FPCG(k, f, x, mg, 1e-8, 400)
	if !res.Converged {
		t.Fatal("NodeBlockJacobi-smoothed MG did not converge")
	}
}

func TestMGRejectsBadInput(t *testing.T) {
	b := sparse.NewBuilder(4, 3)
	b.Add(0, 0, 1)
	if _, err := New(b.Build(), nil, Options{}); err == nil {
		t.Fatal("non-square should fail")
	}
	id := sparse.Identity(4)
	rbad := sparse.NewBuilder(2, 7)
	rbad.Add(0, 0, 1)
	if _, err := New(id, []*sparse.CSR{rbad.Build()}, Options{}); err == nil {
		t.Fatal("mismatched restriction should fail")
	}
}

func TestWCycleWorksAndIsStronger(t *testing.T) {
	k, f, rs := buildElasticity(t, 5, core.Options{MinCoarse: 30})
	its := func(c CycleKind) int {
		mg, err := New(k, rs, Options{Cycle: c})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, k.NRows)
		res := krylov.FPCG(k, f, x, mg, 1e-8, 400)
		if !res.Converged {
			t.Fatalf("cycle %v did not converge", c)
		}
		return res.Iterations
	}
	v := its(VCycle)
	w := its(WCycle)
	if w > v {
		t.Fatalf("W-cycle (%d its) should not be weaker than V-cycle (%d its)", w, v)
	}
}

func TestStationaryWCycleConverges(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	mg, err := New(k, rs, Options{Cycle: WCycle})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k.NRows)
	cycles, rel := mg.Solve(f, x, 1e-10, 100)
	if rel > 1e-10 {
		t.Fatalf("W-cycle MG stalled: rel = %v after %d cycles", rel, cycles)
	}
}

func TestLevelWorkAccounting(t *testing.T) {
	k, f, rs := buildElasticity(t, 4, core.Options{MinCoarse: 30})
	mg, err := New(k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k.NRows)
	res := krylov.FPCG(k, f, x, mg, 1e-8, 200)
	if !res.Converged {
		t.Fatal("no convergence")
	}
	work := mg.LevelWork()
	if len(work) != mg.NumLevels() {
		t.Fatal("level work length")
	}
	var total int64
	for l, w := range work {
		if w <= 0 {
			t.Fatalf("level %d did no work", l)
		}
		total += w
	}
	// Level work must not exceed the overall cycle+smoother accounting.
	if total > mg.Flops() {
		t.Fatalf("level work %d exceeds total %d", total, mg.Flops())
	}
	// Finest level dominates.
	if work[0] < work[mg.NumLevels()-1] {
		t.Fatalf("work distribution implausible: %v", work)
	}
}

func TestApplyCountsApplications(t *testing.T) {
	k, f, rs := buildElasticity(t, 3, core.Options{MinCoarse: 20})
	mg, err := New(k, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, k.NRows)
	mg.Apply(f, z)
	mg.Apply(f, z)
	if mg.Applies != 2 {
		t.Fatalf("applies = %d", mg.Applies)
	}
}

func TestFixEmptyRows(t *testing.T) {
	// A Galerkin operator with an exactly-empty row must be pinned SPD.
	b := sparse.NewBuilder(3, 3)
	b.Add(0, 0, 2)
	b.Add(0, 1, -1)
	b.Add(1, 0, -1)
	b.Add(1, 1, 2)
	// Row/col 2 entirely absent.
	a := fixEmptyRows(b.Build())
	if a.At(2, 2) <= 0 {
		t.Fatalf("empty row not pinned: %v", a.At(2, 2))
	}
	if a.At(2, 0) != 0 || a.At(0, 2) != 0 {
		t.Fatal("pinned row must be decoupled")
	}
	// A healthy matrix passes through untouched.
	c := sparse.Identity(4)
	if got := fixEmptyRows(c); got != c {
		t.Fatal("healthy matrix should be returned as-is")
	}
}

// foreignOp is an Operator the multigrid package does not know: it
// applies a CSR but is none of the assembled storage types.
type foreignOp struct{ *sparse.CSR }

// TestForeignOperatorRejected: a fine operator outside the assembled
// storages gets the typed ErrUnassembledOperator from New, with or
// without a restriction chain and under every storage option, rather
// than a panic inside setup.
func TestForeignOperatorRejected(t *testing.T) {
	kr, _, rs := buildElasticity(t, 3, core.Options{MinCoarse: 30})
	op := foreignOp{kr}
	for _, st := range []StorageKind{StorageAuto, StorageCSR, StorageBSR} {
		for _, chain := range [][]*sparse.CSR{nil, rs} {
			mg, err := New(op, chain, Options{Storage: st})
			if !errors.Is(err, ErrUnassembledOperator) {
				t.Fatalf("storage %v, %d restrictions: err = %v, want ErrUnassembledOperator", st, len(chain), err)
			}
			if mg != nil {
				t.Fatalf("storage %v: got a hierarchy for a foreign operator", st)
			}
		}
	}
}
