package multigrid

import (
	"prometheus/internal/obs"
	"prometheus/internal/sparse"
)

// Observability events and metrics for the Epimetheus layer: hierarchy
// setup (with the Galerkin triple products timed separately), the
// preconditioner applies, and the coarsest-grid direct solves.
var (
	evSetup    = obs.Register("mg.setup")
	evGalerkin = obs.Register("mg.setup.galerkin")
	evApply    = obs.Register("mg.apply")
	evCoarse   = obs.Register("mg.coarse_direct")

	cApplies = obs.NewCounter("mg.applies")
)

// storageName labels a level operator for obs.RecordLevel.
func storageName(a sparse.Operator) string {
	switch a.(type) {
	case *sparse.BSR:
		return "bsr"
	case *sparse.CSR:
		return "csr"
	case *sparse.BSR32:
		return "bsr32"
	case *sparse.CSR32:
		return "csr32"
	default:
		return "op"
	}
}
