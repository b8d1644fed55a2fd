package pool

import "prometheus/internal/obs"

// Observability events. pool.task spans one executed job on its worker's
// rank row; pool.rows counts the rows each worker was assigned, so the
// log view exposes partition balance directly.
var (
	evPoolTask = obs.Register("pool.task")
	evPoolRows = obs.Register("pool.rows")
)
