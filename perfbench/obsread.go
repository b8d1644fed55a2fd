package main

import (
	"prometheus/internal/obs"
)

// obsEvents are the program's own obs events inside the layers the
// benchmark calls. The benchmark does not re-time them; a traced run
// reports their recorded time per repetition as obs.<event>_s.
var obsEvents = []string{
	"core.coarsen.classify", "core.coarsen.mis", "core.coarsen.remesh", "core.coarsen.restrict",
	"mg.setup.galerkin", "mg.coarse_direct", "smooth.cg",
	"sparse.spmv.csr", "sparse.spmv.bsr",
}

// obsOn resets and enables the program's obs recording, with the trace
// buffer size promserve uses.
func obsOn() { obs.EnableWith(obs.Config{RingCap: 1 << 17}) }

// obsOff stops obs recording and returns what it recorded.
func obsOff() *obs.Profile {
	obs.Disable()
	return obs.Snapshot()
}

// obsSeconds returns an event's total recorded time in seconds.
func obsSeconds(p *obs.Profile, name string, out *result) float64 {
	t, _ := obsTotals(p, name, out)
	return float64(t) / 1e9
}

// obsTotals returns an event's total time (ns) and count. The profile
// lists only the events that recorded something. An event missing from
// it reads 0 if the workload declares it idle (idle_obs in
// workloads.json); otherwise the program no longer records it under that
// name, and the run fails instead of reporting 0 as a measurement.
func obsTotals(p *obs.Profile, name string, out *result) (int64, int64) {
	for i := range p.Events {
		if p.Events[i].Name == name {
			t := p.Events[i].Totals()
			return t.TimeNs, t.Count
		}
	}
	if !out.idleObs[name] {
		out.fail("obs event %s recorded nothing", name)
	}
	return 0, 0
}

// recordObs reports each obs event's time per repetition.
func recordObs(p *obs.Profile, reps float64, out *result) {
	for _, e := range obsEvents {
		out.set("obs."+e+"_s", obsSeconds(p, e, out)/reps)
	}
}
