// Package smooth implements the multigrid smoothers: (damped) Jacobi,
// Gauss-Seidel/SOR and its symmetric variant, Chebyshev polynomial
// smoothing, the paper's domain-decomposed block Jacobi smoother with
// graph-partitioned blocks and dense Cholesky block solves ("block Jacobi
// with 6 blocks for every 1,000 unknowns", section 7.2), and a node-block
// Jacobi smoother that inverts the 3x3 diagonal blocks of vector-valued
// operators. Every smoother is written against sparse.Operator, so CSR and
// BSR storage run through the same algorithms.
package smooth

import (
	"fmt"
	"math"

	"prometheus/internal/geom"
	"prometheus/internal/graph"
	"prometheus/internal/la"
	"prometheus/internal/obs"
	"prometheus/internal/sparse"
)

// Smoother applies fixed-point iterations to A·x = b in place.
type Smoother interface {
	// Smooth performs n sweeps updating x. r may be nil; when non-nil it is
	// used as scratch of length dim.
	Smooth(x, b []float64, n int)
	// Apply is the preconditioner form: z ≈ A⁻¹·r from a zero initial
	// guess (one sweep).
	Apply(r, z []float64)
	// Flops returns the accumulated floating point work.
	Flops() int64
}

// taskRef carries the request-scoped obs task a smoother attributes
// its sweep work to. Smoothers belong to exactly one MG instance and an
// MG instance is leased to one solve at a time, so the field is set and
// read on the leasing goroutine — no synchronization needed.
type taskRef struct {
	task *obs.Task
}

// SetTask attaches (or, with nil, detaches) the request-scoped obs
// task subsequent sweeps are attributed to. Called by multigrid.SetTask
// while the owner holds exclusive use of the smoother.
func (c *taskRef) SetTask(t *obs.Task) { c.task = t }

// Jacobi is (damped) Jacobi: x += ω·D⁻¹·(b - A·x).
type Jacobi struct {
	taskRef
	A     sparse.Operator
	Omega float64
	invD  []float64
	work  []float64
	flops int64
}

// NewJacobi builds a damped Jacobi smoother. omega = 1 is plain Jacobi;
// 2/3 is the usual multigrid damping.
func NewJacobi(a sparse.Operator, omega float64) *Jacobi {
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			panic(fmt.Sprintf("smooth: zero diagonal at row %d", i))
		}
		inv[i] = 1 / v
	}
	return &Jacobi{A: a, Omega: omega, invD: inv, work: make([]float64, a.Rows())}
}

// Smooth implements Smoother.
func (s *Jacobi) Smooth(x, b []float64, n int) {
	sp := obs.StartTask(evJacobi, s.task)
	f0 := s.flops
	for it := 0; it < n; it++ {
		s.A.Residual(b, x, s.work)
		for i := range x {
			x[i] += s.Omega * s.invD[i] * s.work[i]
		}
		s.flops += s.A.MulVecFlops() + 3*int64(len(x))
	}
	sp.EndFlops(s.flops - f0)
}

// Apply implements Smoother.
func (s *Jacobi) Apply(r, z []float64) {
	for i := range z {
		z[i] = s.Omega * s.invD[i] * r[i]
	}
	s.flops += 2 * int64(len(z))
}

// Flops implements Smoother.
func (s *Jacobi) Flops() int64 { return s.flops }

// GaussSeidel is SOR with symmetric option: forward sweep then (if Sym)
// backward sweep. The ordered sweep itself is the storage's job (the
// sparse.Sweeper capability): on scalar storage it updates one unknown at
// a time; on blocked storage it runs the paper's nodal variant, solving
// each node's BxB diagonal block exactly per visit (precomputed
// inverses). All four assembled storages provide the capability.
type GaussSeidel struct {
	taskRef
	A     sparse.Operator
	Omega float64
	Sym   bool
	sw    sparse.Sweeper
	// Blocked path: inverted diagonal blocks and a node-sized scratch,
	// both hoisted so sweeps never allocate.
	invBlk []float64
	sum    []float64
	flops  int64
}

// NewGaussSeidel builds an SOR smoother (omega = 1 is Gauss-Seidel).
func NewGaussSeidel(a sparse.Operator, omega float64, sym bool) *GaussSeidel {
	s := &GaussSeidel{A: a, Omega: omega, Sym: sym}
	s.sw, _ = a.(sparse.Sweeper)
	if bd, ok := a.(sparse.BlockDiagonaler); ok && s.sw != nil {
		// For f32 storages the blocks arrive widened and the inverses are
		// computed and held in f64: narrowing touches the operator, never
		// the smoother math.
		if blocks := bd.DiagBlocks(); blocks != nil {
			s.invBlk = invertDiagBlocks(blocks, bd.BlockSize())
			s.sum = make([]float64, bd.BlockSize())
		}
	}
	return s
}

// sweep delegates one SOR sweep to the storage's Sweeper capability,
// accumulating the reported flops.
func (s *GaussSeidel) sweep(x, b []float64, backward bool) {
	if s.sw == nil {
		panic("smooth: GaussSeidel needs the SOR-sweep capability (CSR, BSR, CSR32 or BSR32)")
	}
	s.flops += s.sw.SORSweep(x, b, s.Omega, backward, s.invBlk, s.sum)
}

// Smooth implements Smoother.
func (s *GaussSeidel) Smooth(x, b []float64, n int) {
	sp := obs.StartTask(evGaussSeidel, s.task)
	f0 := s.flops
	for it := 0; it < n; it++ {
		s.sweep(x, b, false)
		if s.Sym {
			s.sweep(x, b, true)
		}
	}
	sp.EndFlops(s.flops - f0)
}

// Apply implements Smoother.
func (s *GaussSeidel) Apply(r, z []float64) {
	for i := range z {
		z[i] = 0
	}
	s.Smooth(z, r, 1)
}

// Flops implements Smoother.
func (s *GaussSeidel) Flops() int64 { return s.flops }

// Chebyshev is polynomial smoothing of fixed degree targeting the interval
// [lmax/alpha, lmax] of the spectrum of D⁻¹A.
type Chebyshev struct {
	taskRef
	A      sparse.Operator
	Degree int
	lmin   float64
	lmax   float64
	invD   []float64
	r, d   []float64 // sweep scratch, hoisted so Smooth never allocates
	flops  int64
}

// NewChebyshev estimates the largest eigenvalue of D⁻¹A with power
// iteration and targets [lmax/alpha, lmax]; alpha ≈ 30 is customary.
func NewChebyshev(a sparse.Operator, degree int, alpha float64) *Chebyshev {
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			panic("smooth: zero diagonal")
		}
		inv[i] = 1 / v
	}
	// Power iteration on D^-1 A.
	n := a.Rows()
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
		if i%2 == 1 {
			v[i] = -v[i]
		}
	}
	lmax := 1.0
	for it := 0; it < 20; it++ {
		a.MulVec(v, w)
		for i := range w {
			w[i] *= inv[i]
		}
		nrm := la.Norm2(w)
		if nrm == 0 {
			break
		}
		lmax = nrm
		la.Scal(1/nrm, w)
		copy(v, w)
	}
	lmax *= 1.05 // safety factor
	return &Chebyshev{
		A: a, Degree: degree, lmin: lmax / alpha, lmax: lmax, invD: inv,
		r: make([]float64, n), d: make([]float64, n),
	}
}

// Smooth implements Smoother using the standard Chebyshev recurrence on the
// D⁻¹-preconditioned operator.
func (s *Chebyshev) Smooth(x, b []float64, n int) {
	sp := obs.StartTask(evChebyshev, s.task)
	f0 := s.flops
	for it := 0; it < n; it++ {
		s.apply(x, b)
	}
	sp.EndFlops(s.flops - f0)
}

func (s *Chebyshev) apply(x, b []float64) {
	nn := s.A.Rows()
	theta := (s.lmax + s.lmin) / 2
	delta := (s.lmax - s.lmin) / 2
	r, d := s.r, s.d
	s.A.Residual(b, x, r)
	sigma := theta / delta
	rho := 1 / sigma
	for i := 0; i < nn; i++ {
		d[i] = s.invD[i] * r[i] / theta
	}
	for k := 0; k < s.Degree; k++ {
		la.Axpy(1, d, x)
		if k == s.Degree-1 {
			break
		}
		s.A.Residual(b, x, r)
		rhoNew := 1 / (2*sigma - rho)
		for i := 0; i < nn; i++ {
			d[i] = rhoNew*rho*d[i] + 2*rhoNew/delta*s.invD[i]*r[i]
		}
		rho = rhoNew
		s.flops += s.A.MulVecFlops() + 6*int64(nn)
	}
	s.flops += s.A.MulVecFlops() + 4*int64(nn)
}

// Apply implements Smoother.
func (s *Chebyshev) Apply(r, z []float64) {
	for i := range z {
		z[i] = 0
	}
	s.apply(z, r)
}

// Flops implements Smoother.
func (s *Chebyshev) Flops() int64 { return s.flops }

// DomainBlockJacobi is the paper's subdomain smoother: the unknowns are
// partitioned into a few large blocks (METIS in the paper, the greedy
// graph partitioner here — "6 blocks for every 1,000 unknowns"), each
// diagonal block is factored with dense Cholesky at setup, and a sweep
// solves every block against the current residual simultaneously. Not to
// be confused with NodeBlockJacobi, whose blocks are the BxB nodal
// diagonal blocks of a vector-valued operator.
type DomainBlockJacobi struct {
	taskRef
	A       sparse.Operator
	blocks  [][]int // dof indices per block
	chols   []*la.Cholesky
	work    []float64
	scratch []float64 // per-block solve buffer
	flops   int64
	// Omega damps the update x += Omega·M⁻¹r. Undamped block Jacobi can
	// diverge on stiff elasticity operators; AutoDamp sets Omega from a
	// power-iteration estimate of λmax(M⁻¹A) so the iteration contracts
	// and the preconditioner stays SPD. Default 1.
	Omega float64
	// SetupFlops records the factorization cost (the paper's "matrix
	// setup" phase includes the subdomain factorizations).
	SetupFlops int64
}

// BlocksPerThousand is the paper's block density for the domain smoother:
// 6 blocks per 1000 unknowns.
const BlocksPerThousand = 6

// NewDomainBlockJacobi factors the diagonal blocks given by part
// (dof -> block). Setup traverses rows through a scalar view of a; the
// steady-state sweeps stay on the Operator interface.
func NewDomainBlockJacobi(a sparse.Operator, part []int, nblocks int) (*DomainBlockJacobi, error) {
	if len(part) != a.Rows() {
		return nil, fmt.Errorf("smooth: partition covers %d of %d dofs", len(part), a.Rows())
	}
	ac := sparse.AsCSR(a)
	s := &DomainBlockJacobi{A: a, blocks: graph.PartMembers(part, nblocks), work: make([]float64, a.Rows()), Omega: 1}
	s.chols = make([]*la.Cholesky, nblocks)
	maxBlock := 0
	for _, dofs := range s.blocks {
		if len(dofs) > maxBlock {
			maxBlock = len(dofs)
		}
	}
	s.scratch = make([]float64, maxBlock)
	for bi, dofs := range s.blocks {
		if len(dofs) == 0 {
			continue
		}
		sub := ac.Submatrix(dofs)
		d := la.NewDense(len(dofs), len(dofs))
		maxDiag := 0.0
		for i := 0; i < sub.NRows; i++ {
			cols, vals := sub.Row(i)
			for k, j := range cols {
				d.Set(i, j, vals[k])
				if i == j && vals[k] > maxDiag {
					maxDiag = vals[k]
				}
			}
		}
		if maxDiag == 0 {
			maxDiag = 1
		}
		// Principal submatrices of an SPD operator are SPD, but aggressive
		// Galerkin coarsening with 1e4 coefficient jumps can leave blocks
		// positive definite only to within roundoff; retry with escalating
		// diagonal shifts before giving up (the shift only weakens the
		// preconditioner slightly).
		var chol *la.Cholesky
		var err error
		for shift := 0.0; ; {
			chol, err = la.NewCholesky(d)
			if err == nil {
				break
			}
			if shift == 0 {
				shift = 1e-12 * maxDiag
			} else {
				shift *= 100
			}
			if shift > 1e-3*maxDiag {
				return nil, fmt.Errorf("smooth: block %d (%d dofs): %w", bi, len(dofs), err)
			}
			for i := 0; i < len(dofs); i++ {
				d.Add(i, i, shift)
			}
		}
		s.chols[bi] = chol
		s.SetupFlops += int64(len(dofs)) * int64(len(dofs)) * int64(len(dofs)) / 3
	}
	return s, nil
}

// DefaultBlockCount returns the paper's 6-blocks-per-1000-unknowns rule
// for the domain smoother (at least one block).
func DefaultBlockCount(n int) int {
	nb := n * BlocksPerThousand / 1000
	if nb < 1 {
		nb = 1
	}
	return nb
}

// AutoDamp estimates λmax(M⁻¹A) with a few power iterations and sets
// Omega = 1/λmax (with a small safety margin) so that every error mode
// contracts. Call once after construction.
func (s *DomainBlockJacobi) AutoDamp() {
	n := s.A.Rows()
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
		if i%3 == 1 {
			v[i] = -v[i]
		}
	}
	lmax := 1.0
	for it := 0; it < 12; it++ {
		s.A.MulVec(v, w)
		s.applyBlocks(w, w)
		nrm := la.Norm2(w)
		if nrm == 0 {
			break
		}
		lmax = nrm
		la.Scal(1/nrm, w)
		copy(v, w)
	}
	s.SetupFlops += int64(12) * (s.A.MulVecFlops() + 3*int64(n))
	s.Omega = 1 / (1.05 * lmax)
	if s.Omega > 1 {
		s.Omega = 1
	}
}

// Smooth implements Smoother: x += Omega·M⁻¹(b - A·x) with M the block
// diagonal.
func (s *DomainBlockJacobi) Smooth(x, b []float64, n int) {
	sp := obs.StartTask(evDomainBJ, s.task)
	f0 := s.flops
	for it := 0; it < n; it++ {
		s.A.Residual(b, x, s.work)
		s.applyBlocks(s.work, s.work)
		la.Axpy(s.Omega, s.work, x)
		s.flops += s.A.MulVecFlops() + 3*int64(len(x))
	}
	sp.EndFlops(s.flops - f0)
}

// applyBlocks solves M·z = r block by block (r and z may alias).
func (s *DomainBlockJacobi) applyBlocks(r, z []float64) {
	for bi, dofs := range s.blocks {
		if len(dofs) == 0 {
			continue
		}
		rb := s.scratch[:len(dofs)]
		for k, d := range dofs {
			rb[k] = r[d]
		}
		s.chols[bi].Solve(rb, rb)
		for k, d := range dofs {
			z[d] = rb[k]
		}
		s.flops += 2 * int64(len(dofs)) * int64(len(dofs))
	}
}

// Apply implements Smoother.
func (s *DomainBlockJacobi) Apply(r, z []float64) {
	s.applyBlocks(r, z)
	if !geom.ApproxEq(s.Omega, 1, 1e-15) {
		la.Scal(s.Omega, z)
	}
}

// Flops implements Smoother.
func (s *DomainBlockJacobi) Flops() int64 { return s.flops }

// NumBlocks returns the number of non-empty blocks.
func (s *DomainBlockJacobi) NumBlocks() int {
	n := 0
	for _, b := range s.blocks {
		if len(b) > 0 {
			n++
		}
	}
	return n
}

// NodeBlockJacobi is the paper's "block diagonal" smoother for
// vector-valued problems: M is the BxB nodal diagonal of a BSR operator
// (one 3x3 block per vertex for elasticity), inverted once at setup. A
// sweep is x += ω·M⁻¹·(b - A·x), with the block back-substitution fused
// into a register-resident loop — stronger than scalar Jacobi because it
// couples the components of each node, and allocation-free in steady
// state. Contrast DomainBlockJacobi, whose blocks are large graph-
// partitioned subdomains solved by dense Cholesky.
type NodeBlockJacobi struct {
	taskRef
	A      sparse.Operator // BSR or BSR32 level operator
	Omega  float64
	bs, nb int       // block size and block-row count of A
	invD   []float64 // inverted BxB diagonal blocks, packed row-major
	work   []float64
	flops  int64
}

// NewNodeBlockJacobi inverts the nodal diagonal blocks of an operator
// with the sparse.BlockDiagonaler capability (BSR or BSR32). omega damps
// the update exactly as in scalar Jacobi (2/3 is customary in
// multigrid). For f32
// storages the diagonal blocks arrive widened to float64 before
// inversion, so the smoother's update math is identical to the f64
// variant applied to the narrowed operator.
func NewNodeBlockJacobi(a sparse.Operator, omega float64) (*NodeBlockJacobi, error) {
	bd, ok := a.(sparse.BlockDiagonaler)
	if !ok {
		return nil, fmt.Errorf("smooth: NodeBlockJacobi needs the node-block diagonal capability")
	}
	blocks := bd.DiagBlocks()
	if blocks == nil {
		return nil, fmt.Errorf("smooth: NodeBlockJacobi: operator is not node-aligned")
	}
	bs := bd.BlockSize()
	return &NodeBlockJacobi{
		A:     a,
		Omega: omega,
		bs:    bs,
		nb:    a.Rows() / bs,
		invD:  invertDiagBlocks(blocks, bs),
		work:  make([]float64, a.Rows()),
	}, nil
}

// Smooth implements Smoother.
func (s *NodeBlockJacobi) Smooth(x, b []float64, n int) {
	sp := obs.StartTask(evNodeBJ, s.task)
	f0 := s.flops
	s.smooth(x, b, n)
	sp.EndFlops(s.flops - f0)
}

func (s *NodeBlockJacobi) smooth(x, b []float64, n int) {
	bs := s.bs
	bb := bs * bs
	nb := s.nb
	for it := 0; it < n; it++ {
		s.A.Residual(b, x, s.work)
		for ib := 0; ib < nb; ib++ {
			inv := s.invD[ib*bb : (ib+1)*bb : (ib+1)*bb]
			r := s.work[ib*bs : ib*bs+bs : ib*bs+bs]
			xr := x[ib*bs : ib*bs+bs : ib*bs+bs]
			for d := 0; d < bs; d++ {
				z := 0.0
				row := inv[d*bs : d*bs+bs]
				for c, vv := range row {
					z += vv * r[c]
				}
				xr[d] += s.Omega * z
			}
		}
		s.flops += s.A.MulVecFlops() + int64(nb)*int64(2*bb+2*bs)
	}
}

// Apply implements Smoother: z = ω·M⁻¹·r.
func (s *NodeBlockJacobi) Apply(r, z []float64) {
	bs := s.bs
	bb := bs * bs
	nb := s.nb
	for ib := 0; ib < nb; ib++ {
		inv := s.invD[ib*bb : (ib+1)*bb : (ib+1)*bb]
		rr := r[ib*bs : ib*bs+bs : ib*bs+bs]
		zr := z[ib*bs : ib*bs+bs : ib*bs+bs]
		for d := 0; d < bs; d++ {
			v := 0.0
			row := inv[d*bs : d*bs+bs]
			for c, vv := range row {
				v += vv * rr[c]
			}
			zr[d] = s.Omega * v
		}
	}
	s.flops += int64(nb) * int64(2*bb+bs)
}

// Flops implements Smoother.
func (s *NodeBlockJacobi) Flops() int64 { return s.flops }

// invertDiagBlocks inverts each packed BxB block in place-order via
// Gauss-Jordan with partial pivoting. Zero (absent) or singular blocks
// panic: a vector-valued operator with a singular nodal diagonal cannot be
// smoothed.
func invertDiagBlocks(blocks []float64, b int) []float64 {
	bb := b * b
	n := len(blocks) / bb
	out := make([]float64, len(blocks))
	m := make([]float64, bb)
	for ib := 0; ib < n; ib++ {
		copy(m, blocks[ib*bb:(ib+1)*bb])
		inv := out[ib*bb : (ib+1)*bb]
		for d := 0; d < b; d++ {
			inv[d*b+d] = 1
		}
		for col := 0; col < b; col++ {
			// Partial pivot.
			piv := col
			for r := col + 1; r < b; r++ {
				if math.Abs(m[r*b+col]) > math.Abs(m[piv*b+col]) {
					piv = r
				}
			}
			if m[piv*b+col] == 0 {
				panic(fmt.Sprintf("smooth: singular diagonal block at node %d", ib))
			}
			if piv != col {
				for c := 0; c < b; c++ {
					m[piv*b+c], m[col*b+c] = m[col*b+c], m[piv*b+c]
					inv[piv*b+c], inv[col*b+c] = inv[col*b+c], inv[piv*b+c]
				}
			}
			p := 1 / m[col*b+col]
			for c := 0; c < b; c++ {
				m[col*b+c] *= p
				inv[col*b+c] *= p
			}
			for r := 0; r < b; r++ {
				if r == col {
					continue
				}
				f := m[r*b+col]
				if f == 0 {
					continue
				}
				for c := 0; c < b; c++ {
					m[r*b+c] -= f * m[col*b+c]
					inv[r*b+c] -= f * inv[col*b+c]
				}
			}
		}
	}
	return out
}

// CGSmoother runs a fixed number of conjugate gradient iterations
// preconditioned by an inner smoother as one smoothing step. This is the
// literal reading of the paper's smoother ("one pre-smoothing and one
// post-smoothing step within multigrid, preconditioned with block Jacobi"):
// each smoothing step is a block-Jacobi-preconditioned CG iteration, which
// is self-scaling (no damping estimate needed) and strictly stronger than a
// stationary sweep. As a preconditioner it is slightly nonlinear, so the
// outer Krylov method must be flexible (krylov.FPCG).
type CGSmoother struct {
	taskRef
	A     sparse.Operator
	Inner Smoother
	Iters int // CG iterations per smoothing step (default 1)
	// CG vectors, hoisted so every smoothing step is allocation-free.
	r, z, p, ap []float64
	flops       int64
}

// NewCGSmoother wraps inner in a CG iteration.
func NewCGSmoother(a sparse.Operator, inner Smoother, iters int) *CGSmoother {
	if iters < 1 {
		iters = 1
	}
	nn := a.Rows()
	return &CGSmoother{
		A: a, Inner: inner, Iters: iters,
		r: make([]float64, nn), z: make([]float64, nn),
		p: make([]float64, nn), ap: make([]float64, nn),
	}
}

// Smooth implements Smoother: n×Iters preconditioned CG iterations
// continuing from the current x.
func (s *CGSmoother) Smooth(x, b []float64, n int) {
	sp := obs.StartTask(evCG, s.task)
	f0 := s.flops
	s.smooth(x, b, n)
	sp.EndFlops(s.flops - f0)
}

// smooth is the span-free body; it returns early on breakdown, so the
// wrapper above keeps the obs span balanced on every path.
func (s *CGSmoother) smooth(x, b []float64, n int) {
	nn := s.A.Rows()
	r, z, p, ap := s.r, s.z, s.p, s.ap
	s.A.Residual(b, x, r)
	s.flops += s.A.MulVecFlops() + int64(nn)
	s.Inner.Apply(r, z)
	copy(p, z)
	rz := la.Dot(r, z)
	for it := 0; it < n*s.Iters; it++ {
		if rz == 0 {
			return
		}
		s.A.MulVec(p, ap)
		pap := la.Dot(p, ap)
		s.flops += s.A.MulVecFlops() + 2*int64(nn)
		if pap <= 0 {
			return
		}
		alpha := rz / pap
		la.Axpy(alpha, p, x)
		la.Axpy(-alpha, ap, r)
		s.flops += 4 * int64(nn)
		if it == n*s.Iters-1 {
			return
		}
		s.Inner.Apply(r, z)
		rzNew := la.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		s.flops += 4 * int64(nn)
	}
}

// Apply implements Smoother.
func (s *CGSmoother) Apply(r, z []float64) {
	for i := range z {
		z[i] = 0
	}
	s.Smooth(z, r, 1)
}

// Flops implements Smoother.
func (s *CGSmoother) Flops() int64 { return s.flops }

// SetTask attaches the request task to the outer iteration and, when
// the inner smoother supports attribution, forwards it there too.
func (s *CGSmoother) SetTask(t *obs.Task) {
	s.taskRef.SetTask(t)
	if ts, ok := s.Inner.(interface{ SetTask(*obs.Task) }); ok {
		ts.SetTask(t)
	}
}
