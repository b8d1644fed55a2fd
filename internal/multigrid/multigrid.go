// Package multigrid is the Epimetheus layer of the reproduction: it takes
// the fine-grid operator and the restriction operators built by the core
// coarsening and assembles the algebraic hierarchy (A_{l+1} = R·A_l·Rᵀ,
// section 3), provides the V-cycle of Figure 1 and the full multigrid (FMG)
// cycle used in the experiments, the block-Jacobi smoothers of section 7.2,
// a direct solve on the coarsest grid, and the preconditioner adapter for
// PCG. All phases count flops for the efficiency analysis of section 6.
package multigrid

import (
	"errors"
	"fmt"

	"prometheus/internal/check"
	"prometheus/internal/direct"
	"prometheus/internal/graph"
	"prometheus/internal/la"
	"prometheus/internal/obs"
	"prometheus/internal/smooth"
	"prometheus/internal/sparse"
)

// SmootherKind selects the smoother.
type SmootherKind int

const (
	// DomainBlockJacobiCG (the default) wraps the domain-decomposed block
	// Jacobi in a conjugate gradient iteration — the literal reading of
	// the paper's smoother ("one pre-smoothing and one post-smoothing step
	// within multigrid, preconditioned with block Jacobi with 6 blocks for
	// every 1,000 unknowns"). Slightly nonlinear: the outer Krylov method
	// must be flexible (krylov.FPCG), which the solver uses throughout.
	DomainBlockJacobiCG SmootherKind = iota
	// DomainBlockJacobi is a stationary damped sweep of the same
	// graph-partitioned subdomain smoother.
	DomainBlockJacobi
	// Jacobi is damped pointwise Jacobi.
	Jacobi
	// GaussSeidel is symmetric SOR (nodal block sweeps on BSR storage).
	GaussSeidel
	// Chebyshev is polynomial smoothing.
	Chebyshev
	// NodeBlockJacobi is the paper's "block diagonal" smoother for
	// vector-valued problems: damped Jacobi on the inverted 3x3 nodal
	// diagonal blocks. Requires BSR level operators.
	NodeBlockJacobi
)

// StorageKind selects the per-level matrix storage.
type StorageKind int

const (
	// StorageAuto (the default) follows the fine operator: a BSR fine grid
	// gets BSR coarse grids via the blocked Galerkin product, a CSR fine
	// grid keeps the scalar pipeline.
	StorageAuto StorageKind = iota
	// StorageCSR forces scalar CSR on every level.
	StorageCSR
	// StorageBSR blocks the fine operator (3x3 node blocks) when its
	// dimensions and sparsity allow, then follows the BSR pipeline.
	StorageBSR
)

// PrecisionKind selects the per-level value precision of the hierarchy.
type PrecisionKind int

const (
	// PrecisionF64 (the default) keeps float64 storage on every level —
	// bitwise identical to the pre-mixed-precision solver on both storages
	// and at every pool worker count.
	PrecisionF64 PrecisionKind = iota
	// PrecisionMixedF32 narrows the storage of coarse levels (level >=
	// CoarseF32Level) to float32 after the full hierarchy is built in
	// float64: the Galerkin triple products, the coarsest direct
	// factorization and every residual/correction transfer stay f64, and
	// the smoothers on narrowed levels run f32 storage with f64
	// accumulation. The fine level is never narrowed, so the f64-only
	// contract of internal/krylov (enforced by the krylov-precision lint
	// rule) holds structurally. Halves the bytes/dof of CSR coarse levels
	// (CSR32: 8 B per entry vs 16) and matches the ROADMAP's
	// "float32 coarse levels, Krylov stays float64" memory lever.
	PrecisionMixedF32
)

// CycleKind selects the multigrid cycle used per preconditioner apply.
type CycleKind int

const (
	// FMG is one full multigrid cycle (the paper's choice, section 7.2).
	FMG CycleKind = iota
	// VCycle is one V-cycle (Figure 1).
	VCycle
	// WCycle visits each coarse level twice per descent — more robust on
	// hard problems at roughly twice the coarse-grid cost.
	WCycle
)

// Options configures the solver.
type Options struct {
	PreSmooth  int // default 1 (paper)
	PostSmooth int // default 1 (paper)
	Smoother   SmootherKind
	Cycle      CycleKind
	Omega      float64         // damping for Jacobi/SOR (default 1)
	BlockCount func(n int) int // block rule (default: paper's 6/1000)
	ChebDegree int             // default 3
	Storage    StorageKind     // per-level storage (default: follow the fine operator)
	// BlockSize is the node-block size used by StorageBSR (default 3, the
	// elasticity dofs-per-node).
	BlockSize int
	// CoarsePrecision selects f64 (default) or mixed f32 coarse-level
	// storage; see PrecisionKind.
	CoarsePrecision PrecisionKind
	// CoarseF32Level is the first level narrowed by PrecisionMixedF32
	// (default 1: every Galerkin level). Level 0 is never narrowed
	// regardless of the threshold.
	CoarseF32Level int
}

func (o Options) withDefaults() Options {
	if o.PreSmooth == 0 {
		o.PreSmooth = 1
	}
	if o.PostSmooth == 0 {
		o.PostSmooth = 1
	}
	if o.Omega == 0 {
		o.Omega = 1
	}
	if o.BlockCount == nil {
		o.BlockCount = smooth.DefaultBlockCount
	}
	if o.ChebDegree == 0 {
		o.ChebDegree = 3
	}
	if o.BlockSize == 0 {
		o.BlockSize = 3
	}
	if o.CoarseF32Level < 1 {
		o.CoarseF32Level = 1
	}
	return o
}

// Level is one grid of the algebraic hierarchy.
type Level struct {
	// A is the level operator — CSR or BSR behind the storage-agnostic
	// interface; the cycles never look behind it.
	A sparse.Operator
	// R restricts residuals from the next finer level to this one; nil on
	// level 0. P = Rᵀ prolongates corrections.
	R, P     *sparse.CSR
	Smoother smooth.Smoother
	Direct   *direct.Cholesky // coarsest level only

	// Work counts the flops attributed to this level by the cycles run so
	// far (matvecs, transfers into the level, direct solves); smoother
	// work is available from Smoother.Flops().
	Work int64

	// scratch
	x, b, res []float64
}

// MG is the multigrid solver/preconditioner.
type MG struct {
	Levels []*Level
	Opts   Options

	// SetupFlops counts the Galerkin triple products and smoother/direct
	// factorizations (the paper's "matrix setup" phase).
	SetupFlops int64
	// CycleFlops counts the work of all cycles applied so far (matvecs,
	// grid transfers, direct solves; smoother flops are tracked by the
	// smoothers and added in Flops()).
	CycleFlops int64
	// Applies counts preconditioner applications.
	Applies int

	// task is the request scope cycles are attributed to (nil outside a
	// served request). An MG instance is leased to exactly one solve at a
	// time (the serve cache's checkout protocol), so the field needs no
	// synchronization: SetTask and Apply run on the leasing goroutine.
	task *obs.Task
}

// taskSetter is implemented by smoothers that can attribute their sweep
// work to a request task.
type taskSetter interface {
	SetTask(t *obs.Task)
}

// SetTask attaches a request-scoped obs task to the preconditioner and
// its level smoothers: every subsequent Apply credits its cycle flops
// (grid transfers and coarse solves) and V-cycle count to the task, and
// the smoothers credit their sweep flops likewise. Pass nil to detach
// before returning a leased instance to its pool. Only valid while the
// caller holds exclusive use of the instance.
func (mg *MG) SetTask(t *obs.Task) {
	mg.task = t
	for _, l := range mg.Levels {
		if s, ok := l.Smoother.(taskSetter); ok {
			s.SetTask(t)
		}
	}
}

// CompressCols removes matrix columns of constrained dofs: full2red maps
// full dof -> reduced dof or -1. Used to align the first restriction
// operator (built on all vertex dofs) with the reduced fine system.
func CompressCols(r *sparse.CSR, full2red []int, nred int) *sparse.CSR {
	b := sparse.NewBuilder(r.NRows, nred)
	for i := 0; i < r.NRows; i++ {
		cols, vals := r.Row(i)
		for k, j := range cols {
			if jr := full2red[j]; jr >= 0 {
				b.Add(i, jr, vals[k])
			}
		}
	}
	return b.Build()
}

// fixEmptyRows pins coarse dofs whose basis functions have no free
// fine-grid support: compressing the first restriction against the
// Dirichlet constraints can zero entire rows of R, which makes the Galerkin
// operator exactly singular there. The restriction never transfers residual
// to (nor prolongs correction from) such dofs, so replacing their zero
// diagonal with the matrix's largest diagonal keeps the operator SPD
// without changing the preconditioner's action.
func fixEmptyRows(a *sparse.CSR) *sparse.CSR {
	d := a.Diag()
	maxd := 0.0
	for _, v := range d {
		if v > maxd {
			maxd = v
		}
	}
	if maxd == 0 {
		maxd = 1
	}
	var bad []int
	for i, v := range d {
		if v <= 1e-13*maxd {
			bad = append(bad, i)
		}
	}
	if len(bad) == 0 {
		return a
	}
	b := sparse.NewBuilder(a.NRows, a.NCols)
	isBad := make(map[int]bool, len(bad))
	for _, i := range bad {
		isBad[i] = true
	}
	for i := 0; i < a.NRows; i++ {
		if isBad[i] {
			b.Set(i, i, maxd)
			continue
		}
		cols, vals := a.Row(i)
		for k, j := range cols {
			if !isBad[j] {
				b.Add(i, j, vals[k])
			}
		}
	}
	return b.Build()
}

// fixEmptyRowsOp is the storage-polymorphic wrapper: the common no-bad-rows
// case is detected from the diagonal without converting storage. A BSR
// operator that does need pinning is repaired through the scalar rebuild
// and *stays* scalar — pinning strips entries out of blocks, and re-blocking
// the ragged pattern would add fill that changes the smoother's partition
// graph relative to the CSR pipeline. Levels below a repaired one follow
// the scalar path, bitwise identical to the pre-refactor hierarchy.
func fixEmptyRowsOp(a sparse.Operator) sparse.Operator {
	ab, ok := a.(*sparse.BSR)
	if !ok {
		return fixEmptyRows(a.(*sparse.CSR))
	}
	d := a.Diag()
	maxd := 0.0
	for _, v := range d {
		if v > maxd {
			maxd = v
		}
	}
	if maxd == 0 {
		maxd = 1
	}
	for _, v := range d {
		if v <= 1e-13*maxd {
			return fixEmptyRows(ab.ToCSR())
		}
	}
	return a
}

// opSymmetric is the storage-polymorphic symmetry diagnostic used by the
// promdebug hierarchy checks.
func opSymmetric(a sparse.Operator, tol float64) bool {
	switch m := a.(type) {
	case *sparse.CSR:
		return m.IsSymmetric(tol)
	case *sparse.BSR:
		return m.IsSymmetric(tol)
	default:
		return true
	}
}

// New assembles the hierarchy: fineA is the (reduced) fine operator and
// restrictions[l] maps level l dofs to level l+1 dofs, already aligned with
// fineA's dof numbering on level 0.
func New(fineA sparse.Operator, restrictions []*sparse.CSR, opts Options) (*MG, error) {
	sp := obs.Start(evSetup)
	mg, err := newMG(fineA, restrictions, opts)
	sp.End()
	if mg != nil {
		for li, lvl := range mg.Levels {
			obs.RecordLevel(li, lvl.A.Rows(), lvl.A.NNZ(), storageName(lvl.A))
		}
	}
	return mg, err
}

// ErrUnassembledOperator is returned by New when the fine operator is
// none of the assembled sparse storages (CSR, BSR, CSR32, BSR32): the
// Galerkin products, the block smoothers and the coarsest factorization
// all need stored entries.
var ErrUnassembledOperator = errors.New("multigrid: fine operator is not an assembled sparse matrix")

func newMG(fineA sparse.Operator, restrictions []*sparse.CSR, opts Options) (*MG, error) {
	switch fineA.(type) {
	case *sparse.CSR, *sparse.BSR, *sparse.CSR32, *sparse.BSR32:
	default:
		return nil, fmt.Errorf("%w (got %T)", ErrUnassembledOperator, fineA)
	}
	opts = opts.withDefaults()
	if fineA.Rows() != fineA.Cols() {
		return nil, errors.New("multigrid: fine operator must be square")
	}
	mg := &MG{Opts: opts}
	a := fineA
	switch opts.Storage {
	case StorageCSR:
		a = sparse.AsCSR(fineA)
	case StorageBSR:
		if _, ok := a.(*sparse.BSR); !ok {
			a = sparse.AutoBlock(sparse.AsCSR(fineA), opts.BlockSize)
		}
	}
	mg.Levels = append(mg.Levels, &Level{A: a})
	for _, r := range restrictions {
		if r.NCols != a.Rows() {
			return nil, fmt.Errorf("multigrid: restriction %dx%d does not match operator %d",
				r.NRows, r.NCols, a.Rows())
		}
		// The blocked Galerkin product accumulates each scalar entry in the
		// same order as the scalar one, so a BSR hierarchy is bitwise equal
		// to the CSR hierarchy it replaces (iteration counts included).
		spg := obs.Start(evGalerkin)
		var ac sparse.Operator
		if _, blocked := a.(*sparse.BSR); blocked {
			ac = fixEmptyRowsOp(sparse.GalerkinBSR(r, a))
		} else {
			ac = fixEmptyRows(sparse.Galerkin(r, sparse.AsCSR(a)))
		}
		spg.End()
		// Galerkin product cost estimate: ~2 flops per multiply-add over
		// the row-merge; use 4·nnz(A)·avg row of R as a proxy.
		mg.SetupFlops += 4 * int64(ac.NNZ())
		lvl := &Level{A: ac, R: r, P: r.Transpose()}
		mg.Levels = append(mg.Levels, lvl)
		a = ac
	}
	if check.Enabled {
		// The hierarchy the cycles recurse over must strictly shrink, and
		// every Galerkin operator must stay symmetric for the SPD smoothers
		// and the coarsest Cholesky factorization.
		dims := make([]int, len(mg.Levels))
		for i, lvl := range mg.Levels {
			dims[i] = lvl.A.Rows()
			check.Assert(opSymmetric(lvl.A, 1e-8), "multigrid.New: level %d operator not symmetric", i)
		}
		check.StrictlyDecreasing(dims, "multigrid.New level dims")
	}
	// Mixed precision: the whole hierarchy above was built — Galerkin
	// triple products included — and checked in full float64; only now is
	// the *storage* of the coarse levels narrowed, so narrowing perturbs
	// each stored entry by at most one f32 rounding and never compounds
	// through the coarsening products. The smoothers constructed below see
	// the narrowed operators; the coarsest level keeps f64 until its exact
	// direct factorization is taken and is narrowed right after.
	if opts.CoarsePrecision == PrecisionMixedF32 {
		for l := opts.CoarseF32Level; l < len(mg.Levels)-1; l++ {
			mg.Levels[l].A = narrowOp(mg.Levels[l].A)
		}
	}
	// Smoothers on all but the coarsest; direct solve on the coarsest.
	for li, lvl := range mg.Levels {
		lvl.x = make([]float64, lvl.A.Rows())
		lvl.b = make([]float64, lvl.A.Rows())
		lvl.res = make([]float64, lvl.A.Rows())
		if li == len(mg.Levels)-1 {
			ch, err := direct.New(sparse.AsCSR(lvl.A))
			if err != nil {
				return nil, fmt.Errorf("multigrid: coarsest factorization: %w", err)
			}
			lvl.Direct = ch
			mg.SetupFlops += ch.FactorFlops
			if opts.CoarsePrecision == PrecisionMixedF32 && li >= opts.CoarseF32Level {
				// The cycles never apply the coarsest operator once the
				// exact f64 factorization exists, so its storage narrows
				// too — the factor keeps the direct solve full-precision.
				lvl.A = narrowOp(lvl.A)
			}
			continue
		}
		s, err := mg.makeSmoother(lvl.A)
		if err != nil {
			return nil, err
		}
		lvl.Smoother = s
	}
	return mg, nil
}

// narrowOp narrows one level operator into f32 storage, preserving the
// blocked/scalar format. The conversions run through the sanctioned
// la.To32 boundary and assert f32 representability under promdebug.
func narrowOp(a sparse.Operator) sparse.Operator {
	switch m := a.(type) {
	case *sparse.CSR:
		return sparse.ToCSR32(m)
	case *sparse.BSR:
		return sparse.ToBSR32(m)
	default:
		return a
	}
}

func (mg *MG) makeSmoother(a sparse.Operator) (smooth.Smoother, error) {
	switch mg.Opts.Smoother {
	case Jacobi:
		return smooth.NewJacobi(a, 2.0/3), nil
	case GaussSeidel:
		return smooth.NewGaussSeidel(a, mg.Opts.Omega, true), nil
	case Chebyshev:
		return smooth.NewChebyshev(a, mg.Opts.ChebDegree, 30), nil
	case NodeBlockJacobi:
		s, err := smooth.NewNodeBlockJacobi(a, 2.0/3)
		if err != nil {
			return nil, fmt.Errorf("multigrid: NodeBlockJacobi smoother requires node-blocked storage (set Options.Storage = StorageBSR): %w", err)
		}
		return s, nil
	case DomainBlockJacobi:
		bj, err := mg.blockJacobi(a)
		if err != nil {
			return nil, err
		}
		bj.AutoDamp()
		return bj, nil
	default: // DomainBlockJacobiCG
		bj, err := mg.blockJacobi(a)
		if err != nil {
			return nil, err
		}
		return smooth.NewCGSmoother(a, bj, 1), nil
	}
}

// blockJacobi builds the paper's subdomain smoother for one level operator.
func (mg *MG) blockJacobi(a sparse.Operator) (*smooth.DomainBlockJacobi, error) {
	{
		ac := sparse.AsCSR(a)
		n := ac.NRows
		nb := mg.Opts.BlockCount(n)
		// Block partition on the matrix graph (the paper uses METIS).
		var edges [][2]int
		for i := 0; i < n; i++ {
			cols, _ := ac.Row(i)
			for _, j := range cols {
				if i < j {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		g := graph.NewGraph(n, edges)
		part := graph.GreedyPartition(g, nb)
		bj, err := smooth.NewDomainBlockJacobi(a, part, nb)
		if err != nil {
			return nil, fmt.Errorf("multigrid: block smoother: %w", err)
		}
		mg.SetupFlops += bj.SetupFlops
		return bj, nil
	}
}

// NumLevels returns the number of grids.
func (mg *MG) NumLevels() int { return len(mg.Levels) }

// vcycle improves x (initial guess respected) for A_l·x = b. gamma is the
// cycle index: 1 = V-cycle, 2 = W-cycle.
func (mg *MG) vcycle(l int, b, x []float64) { mg.cycle(l, b, x, 1) }

// wcycle is the gamma = 2 variant.
func (mg *MG) wcycle(l int, b, x []float64) { mg.cycle(l, b, x, 2) }

func (mg *MG) cycle(l int, b, x []float64, gamma int) {
	lvl := mg.Levels[l]
	if lvl.Direct != nil {
		spd := obs.Start(evCoarse)
		lvl.Direct.Solve(b, x)
		spd.EndFlops(lvl.Direct.SolveFlops())
		mg.CycleFlops += lvl.Direct.SolveFlops()
		lvl.Work += lvl.Direct.SolveFlops()
		return
	}
	lvl.Smoother.Smooth(x, b, mg.Opts.PreSmooth)
	lvl.A.Residual(b, x, lvl.res)
	mg.CycleFlops += lvl.A.MulVecFlops() + int64(len(b))
	lvl.Work += lvl.A.MulVecFlops() + int64(len(b))
	next := mg.Levels[l+1]
	next.R.MulVec(lvl.res, next.b)
	mg.CycleFlops += next.R.MulVecFlops()
	next.Work += next.R.MulVecFlops()
	for i := range next.x {
		next.x[i] = 0
	}
	for g := 0; g < gamma; g++ {
		mg.cycle(l+1, next.b, next.x, gamma)
		if mg.Levels[l+1].Direct != nil {
			break // the coarsest solve is exact; repeating it is a no-op
		}
	}
	// x += P·xc.
	next.P.MulVec(next.x, lvl.res)
	mg.CycleFlops += next.P.MulVecFlops()
	next.Work += next.P.MulVecFlops()
	la.Axpy(1, lvl.res, x)
	mg.CycleFlops += 2 * int64(len(x))
	lvl.Work += 2 * int64(len(x))
	lvl.Smoother.Smooth(x, b, mg.Opts.PostSmooth)
}

// fmg performs one full multigrid cycle for the fine right-hand side b,
// writing the result to x (overwritten): the residual is restricted to
// every level, the coarsest is solved directly, and each finer level
// receives the prolonged solution as the initial guess of a V-cycle.
func (mg *MG) fmg(b, x []float64) {
	n := len(mg.Levels)
	// Restrict b down the hierarchy.
	copy(mg.Levels[0].b, b)
	for l := 1; l < n; l++ {
		mg.Levels[l].R.MulVec(mg.Levels[l-1].b, mg.Levels[l].b)
		mg.CycleFlops += mg.Levels[l].R.MulVecFlops()
		mg.Levels[l].Work += mg.Levels[l].R.MulVecFlops()
	}
	// Coarsest solve.
	last := mg.Levels[n-1]
	if last.Direct != nil {
		spd := obs.Start(evCoarse)
		last.Direct.Solve(last.b, last.x)
		spd.EndFlops(last.Direct.SolveFlops())
		mg.CycleFlops += last.Direct.SolveFlops()
		last.Work += last.Direct.SolveFlops()
	} else {
		for i := range last.x {
			last.x[i] = 0
		}
		mg.vcycle(n-1, last.b, last.x)
	}
	// Work back up: prolong and V-cycle.
	for l := n - 2; l >= 0; l-- {
		lvl := mg.Levels[l]
		next := mg.Levels[l+1]
		next.P.MulVec(next.x, lvl.x)
		mg.CycleFlops += next.P.MulVecFlops()
		next.Work += next.P.MulVecFlops()
		mg.vcycle(l, lvl.b, lvl.x)
	}
	copy(x, mg.Levels[0].x)
}

// Apply implements krylov.Preconditioner: z approximates A⁻¹·r with one
// multigrid cycle.
func (mg *MG) Apply(r, z []float64) {
	sp := obs.StartTask(evApply, mg.task)
	cApplies.Inc()
	f0 := mg.CycleFlops
	mg.apply(r, z)
	// The cycle-flop delta (transfers, coarse solves, residual matvecs)
	// is credited to the apply event and, through the span, the request
	// task. Smoother sweeps record under their own events, so summing
	// krylov + mg.apply + smooth.* event flops counts each operation
	// exactly once.
	sp.EndFlops(mg.CycleFlops - f0)
	mg.task.AddVCycles(1)
}

func (mg *MG) apply(r, z []float64) {
	mg.Applies++
	switch mg.Opts.Cycle {
	case VCycle:
		for i := range z {
			z[i] = 0
		}
		mg.vcycle(0, r, z)
	case WCycle:
		for i := range z {
			z[i] = 0
		}
		mg.wcycle(0, r, z)
	default:
		mg.fmg(r, z)
	}
}

// Solve runs stationary multigrid cycles until the relative residual drops
// below rtol (or maxCycles is hit), returning the cycle count and final
// relative residual.
func (mg *MG) Solve(b, x []float64, rtol float64, maxCycles int) (int, float64) {
	a := mg.Levels[0].A
	r := make([]float64, len(b))
	z := make([]float64, len(b))
	bn := la.Norm2(b)
	if bn == 0 {
		bn = 1
	}
	for c := 0; c < maxCycles; c++ {
		a.Residual(b, x, r)
		mg.CycleFlops += a.MulVecFlops() + int64(len(b))
		rn := la.Norm2(r)
		if rn <= rtol*bn {
			return c, rn / bn
		}
		mg.Apply(r, z)
		la.Axpy(1, z, x)
	}
	a.Residual(b, x, r)
	return maxCycles, la.Norm2(r) / bn
}

// Flops returns total work: setup excluded, cycles plus smoother work.
func (mg *MG) Flops() int64 {
	f := mg.CycleFlops
	for _, l := range mg.Levels {
		if l.Smoother != nil {
			f += l.Smoother.Flops()
		}
	}
	return f
}

// OperatorComplexity returns sum(nnz(A_l))/nnz(A_0), the standard measure
// of hierarchy cost.
func (mg *MG) OperatorComplexity() float64 {
	total := 0
	for _, l := range mg.Levels {
		total += l.A.NNZ()
	}
	return float64(total) / float64(mg.Levels[0].A.NNZ())
}

// LevelWork returns the total flops attributed to each level so far,
// including smoother work (used by the performance model to distribute
// work across simulated ranks).
func (mg *MG) LevelWork() []int64 {
	out := make([]int64, len(mg.Levels))
	for i, l := range mg.Levels {
		out[i] = l.Work
		if l.Smoother != nil {
			out[i] += l.Smoother.Flops()
		}
	}
	return out
}
