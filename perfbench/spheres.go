package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"prometheus/internal/core"
	"prometheus/internal/experiments"
	"prometheus/internal/fem"
	"prometheus/internal/graph"
	"prometheus/internal/krylov"
	"prometheus/internal/la"
	"prometheus/internal/material"
	"prometheus/internal/multigrid"
	"prometheus/internal/newton"
	"prometheus/internal/obs"
	"prometheus/internal/problems"
	"prometheus/internal/sparse"
)

// timedPrecon wraps a multigrid preconditioner to time each application.
// The interval from one application's start to the next is one Krylov
// iteration of the solve the preconditioner belongs to.
type timedPrecon struct {
	mg     *multigrid.MG
	tr     *tracer
	parent int
	lyr    *layerTimes
	last   time.Time
}

func (p *timedPrecon) Apply(r, z []float64) {
	id := p.tr.begin("multigrid.apply", p.parent)
	t0 := time.Now()
	if !p.last.IsZero() {
		p.lyr.iterGaps = append(p.lyr.iterGaps, t0.Sub(p.last))
	}
	if p.lyr.firstApply.IsZero() {
		p.lyr.firstApply = t0
	}
	p.last = t0
	p.mg.Apply(r, z)
	p.lyr.applyTime += time.Since(t0)
	p.lyr.applyCalls++
	p.tr.finish(id)
}

// layerTimes accumulates one pipeline repetition's per-layer figures.
type layerTimes struct {
	rcb, coarsen, assemble, reduce, setup, fpcg time.Duration
	setupCalls                                  int
	setupFlops, assembleFlops                   int64
	applyTime                                   time.Duration
	applyCalls                                  int
	iterGaps                                    []time.Duration
	firstApply                                  time.Time
	levels, coarseVerts, fineNNZ, iters         int
	opComplexity                                float64
	newtonIters, newtonPCG                      int
	kred                                        *sparse.CSR
}

// spheresCfg is the 5-layer spheres series point with k elements per layer.
func spheresCfg(k int) problems.SpheresConfig {
	return problems.SpheresConfig{Layers: 5, ElemsPerLayer: k, CoreElems: 2 * k, OuterElems: 2 * k}
}

// assemblyWorkers matches the element-integration parallelism the paper
// pipeline uses in prombench: one worker per CPU, at most eight.
func assemblyWorkers() int {
	if w := runtime.NumCPU(); w < 8 {
		return w
	}
	return 8
}

// restrictions converts the hierarchy's restriction operators to the
// reduced (free-dof) numbering of the fine level.
func restrictions(h *core.Hierarchy, dm *fem.DofMap) []*sparse.CSR {
	var rs []*sparse.CSR
	for l := 1; l < h.NumLevels(); l++ {
		r := h.Grids[l].R
		if l == 1 {
			r = multigrid.CompressCols(r, dm.Full2Red, dm.NumFree())
		}
		rs = append(rs, r)
	}
	return rs
}

// meshSetup runs the once-per-mesh phases: RCB partition into ranks parts
// and MIS coarsening.
func meshSetup(s *problems.Spheres, ranks int, tr *tracer, root int, lyr *layerTimes) (*core.Hierarchy, error) {
	var owner []int
	lyr.rcb = tr.timed("graph.rcb", root, func(int) { owner = graph.RCB(s.Mesh.Coords, ranks) })
	parts := map[int]bool{}
	for _, o := range owner {
		parts[o] = true
	}
	if len(parts) != ranks {
		return nil, fmt.Errorf("RCB made %d parts, want %d", len(parts), ranks)
	}
	var h *core.Hierarchy
	var err error
	lyr.coarsen = tr.timed("core.coarsen", root, func(int) { h, err = core.Coarsen(s.Mesh, core.Options{}) })
	if err != nil {
		return nil, err
	}
	lyr.levels = h.NumLevels()
	lyr.coarseVerts = h.Grids[h.NumLevels()-1].Mesh.NumVerts()
	return h, nil
}

// zeroConstraints are the homogeneous constraints on the fixed dofs of s.
func zeroConstraints(s *problems.Spheres) (*fem.Constraints, *fem.DofMap) {
	zero := fem.NewConstraints()
	for d := range s.Cons.Fixed {
		zero.FixDof(d, 0)
	}
	return zero, zero.NewDofMap(s.Mesh.NumDOF())
}

// fineSystem assembles the tangent at the crush displacement scaled by
// step and reduces it to the free dofs, with the residual load scaled by
// loadScale.
func fineSystem(s *problems.Spheres, p *fem.Problem, step, loadScale float64, dm *fem.DofMap, zero *fem.Constraints,
	tr *tracer, root int, lyr *layerTimes) (*sparse.CSR, []float64, error) {
	u := make([]float64, s.Mesh.NumDOF())
	s.Cons.Scaled(step).Apply(u)
	var k *sparse.CSR
	var fint []float64
	var err error
	lyr.assemble = tr.timed("fem.assemble", root, func(int) { k, fint, err = p.AssembleTangent(u) })
	if err != nil {
		return nil, nil, err
	}
	lyr.assembleFlops = p.AssembleFlops
	r := make([]float64, len(fint))
	for i := range r {
		r[i] = -loadScale * fint[i]
	}
	var kred *sparse.CSR
	var rred []float64
	lyr.reduce = tr.timed("sparse.reduce", root, func(int) { kred, rred = zero.Reduce(k, r, dm) })
	lyr.fineNNZ = kred.NNZ()
	lyr.kred = kred
	return kred, rred, nil
}

// newPrecon builds the multigrid preconditioner for k (the paper's matrix
// setup) and wraps it for timing.
func newPrecon(k sparse.Operator, rs []*sparse.CSR, tr *tracer, root int, lyr *layerTimes) (*timedPrecon, error) {
	var mg *multigrid.MG
	var err error
	lyr.setup += tr.timed("multigrid.setup", root, func(int) { mg, err = multigrid.New(k, rs, multigrid.Options{}) })
	if err != nil {
		return nil, err
	}
	lyr.setupCalls++
	lyr.setupFlops += mg.SetupFlops
	lyr.opComplexity = mg.OperatorComplexity()
	return &timedPrecon{mg: mg, tr: tr, parent: root, lyr: lyr}, nil
}

// coldSetup runs everything before the first Krylov iteration: partition,
// mesh setup, fine grid at the crush displacement scaled by step, and
// matrix setup.
func coldSetup(s *problems.Spheres, sp *spheresSpec, step, loadScale float64, tr *tracer, root int,
	lyr *layerTimes) (*sparse.CSR, []float64, *timedPrecon, error) {
	h, err := meshSetup(s, sp.Ranks, tr, root, lyr)
	if err != nil {
		return nil, nil, nil, err
	}
	p := fem.NewProblem(s.Mesh, s.Models, true)
	p.Workers = assemblyWorkers()
	zero, dm := zeroConstraints(s)
	kred, rred, err := fineSystem(s, p, step, loadScale, dm, zero, tr, root, lyr)
	if err != nil {
		return nil, nil, nil, err
	}
	pc, err := newPrecon(kred, restrictions(h, dm), tr, root, lyr)
	return kred, rred, pc, err
}

// linearRep is one cold run of the Figure 10 pipeline: partition, mesh
// setup, fine grid, matrix setup and FPCG to rtol.
func linearRep(s *problems.Spheres, sp *spheresSpec, loadScale float64, tr *tracer) (*layerTimes, pipelineTimes, error) {
	lyr := &layerTimes{}
	var pt pipelineTimes
	root := tr.begin("pipeline", 0)
	defer tr.finish(root)
	t0 := time.Now()
	kred, rred, pc, err := coldSetup(s, sp, sp.Step, loadScale, tr, root, lyr)
	if err != nil {
		return nil, pt, err
	}
	pt.setup = time.Since(t0)
	x := make([]float64, kred.NRows)
	var res krylov.Result
	pt.solve = tr.timed("krylov.fpcg", root, func(id int) {
		pc.parent = id
		res = krylov.FPCG(kred, rred, x, pc, sp.RTol, 2000)
	})
	pt.total = time.Since(t0)
	lyr.fpcg = pt.solve
	lyr.iters = res.Iterations
	if !res.Converged {
		return lyr, pt, fmt.Errorf("FPCG did not converge in %d iterations", res.Iterations)
	}
	// Independent check: the true residual of the returned x.
	ax := make([]float64, kred.NRows)
	kred.MulVec(x, ax)
	for i := range ax {
		ax[i] = rred[i] - ax[i]
	}
	if rel := la.Norm2(ax) / la.Norm2(rred); !(rel <= sp.RTol) {
		return lyr, pt, fmt.Errorf("true relative residual %.3g exceeds rtol %g", rel, sp.RTol)
	}
	return lyr, pt, nil
}

// pipelineTimes are one repetition's end-to-end times.
type pipelineTimes struct {
	setup, solve, total time.Duration
}

// setupRep times the set-up the workload pays before its first Krylov
// iteration: partition, mesh setup, the first tangent and its multigrid
// preconditioner. The Newton crush assembles its first tangent at the
// first load step.
func setupRep(s *problems.Spheres, sp *spheresSpec, loadScale float64, tr *tracer) (time.Duration, error) {
	step := sp.Step
	if sp.NewtonSteps > 0 {
		step = 1 / float64(sp.NewtonSteps)
	}
	root := tr.begin("pipeline", 0)
	defer tr.finish(root)
	t0 := time.Now()
	_, _, _, err := coldSetup(s, sp, step, loadScale, tr, root, &layerTimes{})
	return time.Since(t0), err
}

// newtonRep runs the whole Newton crush once and checks its answer
// against the recorded reference.
func newtonRep(s *problems.Spheres, sp *spheresSpec, tr *tracer) (*layerTimes, pipelineTimes, error) {
	lyr := &layerTimes{}
	var pt pipelineTimes
	root := tr.begin("pipeline", 0)
	defer tr.finish(root)
	t0 := time.Now()
	h, err := meshSetup(s, sp.Ranks, tr, root, lyr)
	if err != nil {
		return nil, pt, err
	}
	p := fem.NewProblem(s.Mesh, s.Models, true)
	p.Workers = assemblyWorkers()
	_, dm := zeroConstraints(s)
	rs := restrictions(h, dm)
	var u []float64
	var st *newton.Stats
	pt.solve = tr.timed("newton.solve", root, func(id int) {
		factory := func(k sparse.Operator) (krylov.Preconditioner, error) {
			return newPrecon(k, rs, tr, id, lyr)
		}
		u, st, err = newton.Solve(p, s.Cons, newton.Config{
			Steps: sp.NewtonSteps, MaxNewton: maxNewton, MaxPCG: 2000,
		}, factory, material.MatHard)
	})
	pt.total = time.Since(t0)
	pt.setup = lyr.firstApply.Sub(t0)
	if err != nil {
		return lyr, pt, err
	}
	lyr.newtonIters, lyr.newtonPCG, lyr.iters = st.TotalNewton, st.TotalPCG, st.TotalPCG
	for i, ss := range st.Steps {
		if ss.NewtonIters >= maxNewton {
			return lyr, pt, fmt.Errorf("load step %d did not converge in %d Newton iterations", i+1, maxNewton)
		}
	}
	if len(st.Steps) != sp.NewtonSteps {
		return lyr, pt, fmt.Errorf("%d of %d load steps ran", len(st.Steps), sp.NewtonSteps)
	}
	ref := sp.Reference
	plastic := st.Steps[len(st.Steps)-1].PlasticFrac
	unorm := la.Norm2(u)
	fmt.Fprintf(os.Stderr, "perfbench: newton crush: %d Newton, %d PCG iterations, final plastic fraction %.6f, ‖u‖ %.12g\n",
		st.TotalNewton, st.TotalPCG, plastic, unorm)
	if math.Abs(plastic-ref.PlasticFrac) > ref.PlasticTol {
		return lyr, pt, fmt.Errorf("final plastic fraction %.6f, want %.6f ± %g", plastic, ref.PlasticFrac, ref.PlasticTol)
	}
	if math.Abs(unorm-ref.UNorm) > ref.UNormRelTol*ref.UNorm {
		return lyr, pt, fmt.Errorf("‖u‖ = %.9g, want %.9g within %g relative", unorm, ref.UNorm, ref.UNormRelTol)
	}
	return lyr, pt, nil
}

// maxNewton bounds the Newton iterations of one load step; a step that
// uses them all has not converged.
const maxNewton = 30

// spheresRun is the measured outcome of a spheres workload.
type spheresRun struct {
	setups []time.Duration
	reps   []pipelineTimes
	layers []*layerTimes
	fine   *sparse.CSR // the last repetition's reduced fine matrix
}

// runSpheres repeats the workload's pipeline until budget has passed (at
// least once), after sp.SetupReps set-up-only repetitions.
func runSpheres(sp *spheresSpec, seed int64, budget time.Duration, tr *tracer, out *result) *spheresRun {
	cfg := spheresCfg(sp.ElemsPerLayer)
	s := problems.NewSpheresConfig(cfg)
	if sp.NewtonSteps > 0 {
		// Keep the shell-bending yield regime of the paper's 17-layer
		// geometry, as the Figure 13 study does.
		s.Models[material.MatHard] = material.J2Plasticity{
			E: 1, Nu: 0.3, SigmaY: experiments.ScaledYieldStress(cfg), H: 0.002,
		}
	}
	// The seed scales the residual load; the linear solve's iterations
	// are invariant under it, the answer is not.
	loadScale := 0.5 + 1.5*rand.New(rand.NewSource(seed)).Float64()

	run := &spheresRun{}
	for i := 0; i < sp.SetupReps; i++ {
		out.attempted++
		d, err := setupRep(s, sp, loadScale, tr)
		if err != nil {
			out.fail("set-up repetition %d: %v", i, err)
			continue
		}
		run.setups = append(run.setups, d)
	}
	// The program's obs figures of a traced run cover the timed
	// repetitions only.
	obs.Reset()
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < budget; rep++ {
		out.attempted++
		var lyr *layerTimes
		var pt pipelineTimes
		var err error
		if sp.NewtonSteps > 0 {
			lyr, pt, err = newtonRep(s, sp, tr)
		} else {
			lyr, pt, err = linearRep(s, sp, loadScale, tr)
		}
		if err != nil {
			out.fail("repetition %d: %v", rep, err)
			continue
		}
		run.setups = append(run.setups, pt.setup)
		run.reps = append(run.reps, pt)
		// Keep the last fine matrix only; one per repetition would
		// inflate the peak RSS the run reports.
		run.fine, lyr.kred = lyr.kred, nil
		run.layers = append(run.layers, lyr)
	}
	return run
}

// spheresWorkload runs a spheres workload and records its metrics. A
// traced run spends the first half of the budget untraced and the second
// half with the benchmark's spans and the program's obs recording on.
func spheresWorkload(sp *spheresSpec, seed int64, budget time.Duration, traced bool, out *result) *tracer {
	if !traced {
		tr := newTracer(false)
		run := runSpheres(sp, seed, budget, tr, out)
		if len(run.reps) == 0 {
			return tr
		}
		var solve, total []time.Duration
		var gaps []float64
		for i, pt := range run.reps {
			solve = append(solve, pt.solve)
			total = append(total, pt.total)
			for _, g := range run.layers[i].iterGaps {
				gaps = append(gaps, g.Seconds()*1e3)
			}
		}
		tts := median(seconds(total))
		out.set("setup_s", median(seconds(run.setups)))
		out.set("solve_s", median(seconds(solve)))
		out.set("time_to_solution_s", tts)
		p50, _ := tailPercentile(gaps, 0.5)
		p90, ok := tailPercentile(gaps, 0.9)
		if !ok {
			out.fail("only %d Krylov iterations timed: p90 needs %d beyond it", len(gaps), minTail)
		}
		out.set("latency_p50_ms", p50)
		out.set("latency_p90_ms", p90)
		return tr
	}

	// The traced run reports no setup_s, so it skips the set-up-only
	// repetitions.
	pipelineOnly := *sp
	pipelineOnly.SetupReps = 0
	sp = &pipelineOnly
	plain := runSpheres(sp, seed, budget/2, newTracer(false), out)
	obsOn()
	tr := newTracer(true)
	run := runSpheres(sp, seed, budget/2, tr, out)
	prof := obsOff()
	if len(run.reps) == 0 || len(plain.reps) == 0 {
		return tr
	}
	n := float64(len(run.reps))
	per := func(f func(l *layerTimes) float64) float64 {
		var xs []float64
		for _, l := range run.layers {
			xs = append(xs, f(l))
		}
		return median(xs)
	}
	out.set("graph.rcb_s", per(func(l *layerTimes) float64 { return l.rcb.Seconds() }))
	out.set("core.coarsen_s", per(func(l *layerTimes) float64 { return l.coarsen.Seconds() }))
	out.set("core.levels", per(func(l *layerTimes) float64 { return float64(l.levels) }))
	out.set("core.coarse_vertices", per(func(l *layerTimes) float64 { return float64(l.coarseVerts) }))
	if sp.NewtonSteps == 0 {
		out.set("fem.assemble_s", per(func(l *layerTimes) float64 { return l.assemble.Seconds() }))
		out.set("fem.assemble_flops", per(func(l *layerTimes) float64 { return float64(l.assembleFlops) }))
		out.set("sparse.reduce_s", per(func(l *layerTimes) float64 { return l.reduce.Seconds() }))
		out.set("sparse.fine_nnz", per(func(l *layerTimes) float64 { return float64(l.fineNNZ) }))
		out.set("sparse.fine_bytes", float64(sparse.StorageBytes(run.fine)))
		gflops, fpb := spmvRate(run.fine)
		out.set("sparse.spmv_gflops", gflops)
		out.set("sparse.spmv_flops_per_byte", fpb)
		out.set("krylov.fpcg_s", per(func(l *layerTimes) float64 { return l.fpcg.Seconds() }))
	} else {
		out.set("newton.iters", per(func(l *layerTimes) float64 { return float64(l.newtonIters) }))
		out.set("newton.pcg_iters", per(func(l *layerTimes) float64 { return float64(l.newtonPCG) }))
		out.set("krylov.fpcg_s", obsSeconds(prof, "krylov.fpcg", out)/n)
	}
	out.set("krylov.iters", per(func(l *layerTimes) float64 { return float64(l.iters) }))
	out.set("multigrid.setup_s", per(func(l *layerTimes) float64 { return l.setup.Seconds() }))
	out.set("multigrid.setup_calls", per(func(l *layerTimes) float64 { return float64(l.setupCalls) }))
	out.set("multigrid.setup_flops", per(func(l *layerTimes) float64 { return float64(l.setupFlops) }))
	out.set("multigrid.apply_s", per(func(l *layerTimes) float64 { return l.applyTime.Seconds() }))
	out.set("multigrid.apply_calls", per(func(l *layerTimes) float64 { return float64(l.applyCalls) }))
	out.set("multigrid.operator_complexity", per(func(l *layerTimes) float64 { return l.opComplexity }))
	out.set("krylov.self_s", out.m["krylov.fpcg_s"]-out.m["multigrid.apply_s"])

	self := selfTimes(tr.snapshot())
	if sp.NewtonSteps > 0 {
		// Newton's own work: assembly, reduction and the Krylov loop
		// outside the preconditioner.
		out.set("newton.self_s", self["newton.solve"].Seconds()/n)
	}
	out.set("trace.pipeline_self_s", self["pipeline"].Seconds()/n)
	recordObs(prof, n, out)
	recordOverhead(plain, run, out, tr)
	return tr
}

// recordOverhead reports the traced run's time to solution against the
// untraced run's.
func recordOverhead(plain, traced *spheresRun, out *result, tr *tracer) {
	tt := func(r *spheresRun) float64 {
		var xs []float64
		for _, pt := range r.reps {
			xs = append(xs, pt.total.Seconds())
		}
		return median(xs)
	}
	out.set("trace.overhead_frac", tt(traced)/tt(plain)-1)
	out.set("trace.spans", float64(len(tr.snapshot())))
}

// spmvRate times a loop of fine-level MulVec calls for about 0.3 s and
// returns Gflop/s and flops per computed byte (matrix storage plus one
// read of x and one write of y).
func spmvRate(a *sparse.CSR) (gflops, flopsPerByte float64) {
	x := make([]float64, a.NCols)
	y := make([]float64, a.NRows)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < 300*time.Millisecond {
		a.MulVec(x, y)
		calls++
	}
	el := time.Since(t0).Seconds()
	flops := float64(a.MulVecFlops())
	bytes := float64(sparse.StorageBytes(a)) + 8*float64(a.NCols+a.NRows)
	return flops * float64(calls) / el / 1e9, flops / bytes
}
