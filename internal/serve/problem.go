package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	prometheus "prometheus"
	"prometheus/internal/core"
	"prometheus/internal/multigrid"
	"prometheus/internal/problems"
)

// Spec names one of the bundled parametric problems. It is the part of a
// solve request that determines the geometry, constraints and reference
// load — everything the mesh fingerprint (and so the hierarchy cache key)
// is derived from.
type Spec struct {
	// Problem is the problem kind: "cube" or "cantilever".
	Problem string `json:"problem"`
	// Size is the refinement parameter (same meaning as promsolve -size).
	Size int `json:"size"`
}

// Geometry is a built problem: mesh, Dirichlet set, materials and the
// unit reference load vector. It is cheap relative to hierarchy setup
// (structured generation, no assembly), so the service rebuilds it per
// request to compute the fingerprint before consulting the cache.
type Geometry struct {
	// Mesh is the fine-grid mesh.
	Mesh *prometheus.Mesh
	// Cons is the Dirichlet constraint set.
	Cons *prometheus.Constraints
	// Models are the material models indexed by mesh material id.
	Models []prometheus.Model
	// Load is the reference external force vector (full dof numbering);
	// requests scale it by their load_scale.
	Load []float64
}

// BuildGeometry constructs the named problem exactly as cmd/promsolve
// does, so served solves are comparable (bitwise) to command-line runs of
// the same spec.
func BuildGeometry(spec Spec) (*Geometry, error) {
	if spec.Size < 1 {
		return nil, fmt.Errorf("serve: size must be >= 1, got %d", spec.Size)
	}
	if spec.Size > maxSize {
		return nil, fmt.Errorf("serve: size %d exceeds the service limit %d", spec.Size, maxSize)
	}
	switch spec.Problem {
	case "cube":
		c := problems.NewCube(4*spec.Size, prometheus.LinearElastic{E: 1, Nu: 0.3}, -0.001)
		return &Geometry{Mesh: c.Mesh, Cons: c.Cons, Models: c.Models, Load: c.Load}, nil
	case "cantilever":
		c := problems.NewCantilever(6*spec.Size, spec.Size, spec.Size, 6,
			prometheus.LinearElastic{E: 1, Nu: 0.3}, -0.0001)
		return &Geometry{Mesh: c.Mesh, Cons: c.Cons, Models: c.Models, Load: c.Load}, nil
	default:
		return nil, fmt.Errorf("serve: unknown problem %q (want cube or cantilever)", spec.Problem)
	}
}

// maxSize bounds the refinement parameter a request may ask for: the
// service is memory-bounded by construction, like its queues.
const maxSize = 8

// AssembleLinear assembles the tangent stiffness at zero displacement and
// the scaled load vector — the expensive fine-grid-creation phase, run
// once per cache entry and skipped on warm hits.
func (g *Geometry) AssembleLinear(scale float64) (*prometheus.CSR, []float64, error) {
	p := prometheus.NewProblem(g.Mesh, g.Models, false)
	u := make([]float64, g.Mesh.NumDOF())
	k, _, err := p.AssembleTangent(u)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: assembly: %w", err)
	}
	f := make([]float64, len(g.Load))
	for i, v := range g.Load {
		f[i] = scale * v
	}
	return k, f, nil
}

// Fingerprint returns the deterministic content hash of the geometry
// under the given coarsening options (core.Fingerprint): the part of the
// cache key that identifies the hierarchy.
func (g *Geometry) Fingerprint(opts prometheus.CoarsenOptions) string {
	return core.Fingerprint(g.Mesh, g.Cons.Fixed, opts)
}

// storageLabel is the canonical cache-key component for a storage mode.
// Derived from the resolved options (not the raw request string), so two
// spellings that configure the same solver can never produce distinct
// keys, and two modes that cache different products can never collide.
func storageLabel(k prometheus.StorageKind) string {
	switch k {
	case prometheus.StorageCSR:
		return "csr"
	case prometheus.StorageBSR:
		return "bsr"
	default:
		return "auto"
	}
}

// precisionLabel is the canonical cache-key component for the coarse-level
// precision mode.
func precisionLabel(k multigrid.PrecisionKind) string {
	if k == multigrid.PrecisionMixedF32 {
		return "f32"
	}
	return "f64"
}

// cacheKey derives the full cache key: the mesh fingerprint plus the
// solve-variant parameters that change the cached setup products (cycle
// shapes the multigrid built from the hierarchy, storage and coarse
// precision shape the cached operator hierarchy itself, the load scale
// bakes into the cached reduced right-hand side). Float bits, not
// formatted decimals, so distinct scales can never collide. Storage and
// precision come from the resolved options: a "bsr" entry caches blocked
// matrices and a "f32" entry caches narrowed coarse matrices, so sharing
// an entry across those modes would hand one request's variant to
// another.
func cacheKey(fp string, cycle string, opts prometheus.Options, scale float64) string {
	return fp + "/" + cycle + "/" + storageLabel(opts.MG.Storage) + "/" +
		precisionLabel(opts.MG.CoarsePrecision) + "/" +
		strconv.FormatUint(math.Float64bits(scale), 16)
}

// solverOptions maps request-level solve parameters onto the library
// options. The same mapping is used by the cache build and by
// DirectSolve, so the two paths configure identical solvers.
func solverOptions(rtol float64, maxIters int, cycle, storage, precision string) (prometheus.Options, error) {
	opts := prometheus.Options{RTol: rtol, MaxIters: maxIters}
	switch cycle {
	case "", "fmg":
		// FMG is the default cycle (the paper's preconditioner).
	case "v":
		opts.MG.Cycle = prometheus.VCycle
	case "w":
		opts.MG.Cycle = prometheus.WCycle
	default:
		return opts, fmt.Errorf("serve: unknown cycle %q (want fmg, v or w)", cycle)
	}
	switch storage {
	case "", "auto":
		// Follow the fine operator (assembled CSR on this service).
	case "csr":
		opts.MG.Storage = prometheus.StorageCSR
	case "bsr":
		opts.MG.Storage = prometheus.StorageBSR
	default:
		return opts, fmt.Errorf("serve: unknown storage %q (want auto, csr or bsr)", storage)
	}
	switch precision {
	case "", "f64":
		// Full float64 on every level (the default).
	case "f32":
		opts.MG.CoarsePrecision = multigrid.PrecisionMixedF32
	default:
		return opts, fmt.Errorf("serve: unknown precision %q (want f64 or f32)", precision)
	}
	return opts, nil
}

// DirectSolve runs the promsolve-style pipeline for a spec without any
// service machinery: build, assemble, NewSolver, SolveLinear. It is the
// reference the serve path is verified bitwise-identical against, and the
// cold-path baseline of the servebench experiment.
func DirectSolve(spec Spec, scale, rtol float64, maxIters int, cycle, storage, precision string) ([]float64, *prometheus.Result, error) {
	g, err := BuildGeometry(spec)
	if err != nil {
		return nil, nil, err
	}
	opts, err := solverOptions(rtol, maxIters, cycle, storage, precision)
	if err != nil {
		return nil, nil, err
	}
	solver, err := prometheus.NewSolver(g.Mesh, g.Cons, opts)
	if err != nil {
		return nil, nil, err
	}
	k, f, err := g.AssembleLinear(scale)
	if err != nil {
		return nil, nil, err
	}
	return solver.SolveLinear(k, f)
}

// SolutionHash returns the hex sha256 over the IEEE-754 bit patterns of a
// solution vector. Two vectors hash equal iff they are bitwise identical,
// so clients (and the CI gate) can verify served results against direct
// runs without shipping the full vector.
func SolutionHash(u []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range u {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, _ = h.Write(buf[:]) // hash.Hash writes never fail
	}
	return hex.EncodeToString(h.Sum(nil))
}
