package sparse

// Operator is the storage-agnostic interface every solver algorithm in the
// tree is written against: Krylov methods, smoothers, the multigrid cycle
// and the parallel kernels only need a matrix-vector product, a residual,
// a diagonal and a handful of size queries. CSR and BSR (and their f32
// coarse-level variants) implement it. This is the PETSc Mat-object
// decoupling that let the paper swap AIJ for the blocked BAIJ format and
// collect the per-processor Mflop gains.
//
// Anything beyond the core apply is a capability: consumers that need
// diagonal blocks or a SOR sweep assert the corresponding optional
// interface (BlockDiagonaler, Sweeper) instead of a concrete storage type.
type Operator interface {
	// Rows and Cols return the operator's dimensions.
	Rows() int
	Cols() int
	// MulVec computes y = A·x.
	MulVec(x, y []float64)
	// MulVecRange computes y[i] = (A·x)[i] for i in [lo, hi); rows outside
	// the range are left untouched. It is the kernel for row-partitioned
	// parallel products.
	MulVecRange(x, y []float64, lo, hi int)
	// Residual computes r = b - A·x.
	Residual(b, x, r []float64)
	// Diag returns a freshly allocated copy of the diagonal (zeros where
	// absent).
	Diag() []float64
	// NNZ returns the number of stored scalar entries (explicit zeros
	// included).
	NNZ() int
	// MulVecFlops returns the flop count of one MulVec (2·nnz by the
	// paper's convention).
	MulVecFlops() int64
}

// BlockDiagonaler is the node-block diagonal capability: storages that
// know their b-by-b diagonal blocks expose them for block smoothers
// (NodeBlockJacobi) without the smoother asserting a concrete type.
type BlockDiagonaler interface {
	// BlockSize returns the scalar block dimension b.
	BlockSize() int
	// DiagBlocks returns a copy of the BxB diagonal blocks, packed
	// row-major per block in block-row order (widened to float64 for f32
	// storages). Implementations that are not node-aligned return nil.
	DiagBlocks() []float64
}

// Sweeper is the SOR-sweep capability: storages with ordered row
// traversal provide the Gauss-Seidel kernel themselves, so the smoother
// package never reaches into storage internals.
type Sweeper interface {
	// SORSweep performs one forward (backward=false) or backward sweep of
	// x for A·x = b in place and returns the flop count. invBlk holds the
	// inverted diagonal blocks for blocked storages (ignored by scalar
	// storages); scratch is a caller-provided buffer of at least
	// BlockSize() float64s for the per-block right-hand side.
	SORSweep(x, b []float64, omega float64, backward bool, invBlk, scratch []float64) int64
}

// Compile-time interface conformance for all four assembled storage
// formats, and for the capabilities each provides.
var (
	_ Operator = (*CSR)(nil)
	_ Operator = (*BSR)(nil)
	_ Operator = (*CSR32)(nil)
	_ Operator = (*BSR32)(nil)

	_ Sweeper = (*CSR)(nil)
	_ Sweeper = (*BSR)(nil)
	_ Sweeper = (*CSR32)(nil)
	_ Sweeper = (*BSR32)(nil)

	_ BlockDiagonaler = (*BSR)(nil)
	_ BlockDiagonaler = (*BSR32)(nil)
)

// AsCSR returns a scalar CSR view of op: the identity for *CSR, the
// expanded (and for f32 storage, widened) scalar matrix otherwise. It is
// the escape hatch for setup-time code that genuinely needs row traversal
// (graph partitioning, direct factorization, submatrix extraction);
// steady-state kernels should stay on the Operator interface.
func AsCSR(op Operator) *CSR {
	c, ok := TryCSR(op)
	if !ok {
		panic("sparse: AsCSR: operator has no assembled CSR view")
	}
	return c
}

// TryCSR is AsCSR with a graceful failure: it returns (nil, false) for
// operators that are none of the assembled storages, so setup-time
// consumers can report a configuration error instead of panicking.
func TryCSR(op Operator) (*CSR, bool) {
	switch a := op.(type) {
	case *CSR:
		return a, true
	case *BSR:
		return a.ToCSR(), true
	case *CSR32:
		return a.ToCSR(), true
	case *BSR32:
		return a.ToCSR(), true
	default:
		return nil, false
	}
}

// AutoBlock returns the preferred storage for a square scalar matrix with b
// dofs per node: the node-blocked BSR when the dimensions are b-divisible
// and blocking does not bloat the pattern (fill beyond 2x the scalar nnz
// means the sparsity is not node-aligned), the original CSR otherwise.
// Matrices assembled per node pair (the elasticity stack) block with zero
// fill; b <= 1 or misaligned patterns fall back to CSR unchanged.
func AutoBlock(a *CSR, b int) Operator {
	if b <= 1 || a.NRows != a.NCols || a.NRows%b != 0 {
		return a
	}
	bsr, err := FromCSR(a, b)
	if err != nil || bsr.NNZ() > 2*a.NNZ() {
		return a
	}
	return bsr
}

// AutoBlockOp is AutoBlock lifted to the Operator interface: scalar CSR
// inputs get the blocking heuristic, every other operator (already
// blocked or f32) passes through unchanged. Consumers outside
// the sparse package use it instead of asserting concrete storage types.
func AutoBlockOp(op Operator, b int) Operator {
	if a, ok := op.(*CSR); ok {
		return AutoBlock(a, b)
	}
	return op
}
