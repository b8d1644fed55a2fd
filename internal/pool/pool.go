// Package pool is the real-core shared-memory substrate of the solver:
// a fixed set of long-lived worker goroutines that execute row-partitioned
// kernels over disjoint index ranges. It is the first step of the
// ROADMAP's "real wall-clock scaling mode" — where internal/par models
// the paper's MPI ranks with message passing, pool runs actual
// runtime.NumCPU-wide data parallelism over shared vectors.
//
// Safety is enforced on three levels:
//
//   - statically, the promlint shared-write / range-partition rules prove
//     that Dispatch hands out a disjoint cover of [0, n) and that every
//     kernel writes only inside its assigned range;
//   - dynamically (promdebug builds), each worker claims its range in the
//     check.Owners shadow table before writing, so an overlapping claim
//     panics with both workers' stacks;
//   - operationally, dispatch is allocation-free in steady state: jobs
//     travel by value through a buffered channel, workers never die, and
//     there is no per-call goroutine churn.
package pool

import (
	"runtime"
	"sync"

	"prometheus/internal/check"
	"prometheus/internal/obs"
)

// Kernel is a row-partitioned compute kernel. MulVecRange must write
// exactly the rows y[lo:hi] and must not write x — the contract every
// sparse matrix type and smoother update kernel implements, and the one
// the shared-write lint rule verifies at each implementation.
type Kernel interface {
	MulVecRange(x, y []float64, lo, hi int)
}

// job is one dispatched row range. Jobs travel by value so a dispatch
// allocates nothing.
type job struct {
	k      Kernel
	x, y   []float64
	lo, hi int
	// task is the request scope the chunk's work is attributed to (nil
	// outside a served request). Jobs still travel by value.
	task *obs.Task
}

// Pool is a fixed-size set of long-lived workers. The zero value is not
// usable; construct with New. A Pool is safe for concurrent use —
// dispatches are serialized internally.
type Pool struct {
	mu   sync.Mutex
	jobs chan job
	done chan struct{}
	nw   int
	// own is the promdebug write-ownership sanitizer; in release builds
	// it is an empty struct and every call site sits under check.Enabled.
	own check.Owners
}

// New starts a pool of nw workers; nw < 1 means runtime.NumCPU().
func New(nw int) *Pool {
	if nw < 1 {
		nw = runtime.NumCPU()
	}
	p := &Pool{
		nw:   nw,
		jobs: make(chan job, nw),
		done: make(chan struct{}, nw),
	}
	if check.Enabled {
		p.own.Init(nw)
	}
	for w := 0; w < nw; w++ {
		go p.worker(w)
	}
	return p
}

// Workers returns the number of workers.
func (p *Pool) Workers() int { return p.nw }

// Sanitizer returns the pool's write-ownership table (promdebug builds;
// an inert empty struct otherwise), for tests and benchmarks that toggle
// the runtime checking.
func (p *Pool) Sanitizer() *check.Owners { return &p.own }

// Close shuts the workers down. The pool must be idle.
func (p *Pool) Close() { close(p.jobs) }

// worker executes jobs until the pool is closed. Worker w's writes are
// confined to y[lo:hi] of each job it receives: the kernel honors the
// Kernel contract (statically verified), and under promdebug the range is
// claimed in the ownership table so overlap panics at the first racy
// dispatch rather than corrupting data silently.
func (p *Pool) worker(w int) {
	for j := range p.jobs {
		if check.Enabled {
			p.own.Claim(w, j.y, j.lo, j.hi)
		}
		sp := obs.StartRankTask(evPoolTask, w, j.task)
		j.k.MulVecRange(j.x, j.y, j.lo, j.hi)
		sp.End()
		obs.AddCount(evPoolRows, w, int64(j.hi-j.lo))
		j.task.AddRows(int64(j.hi - j.lo))
		if check.Enabled {
			p.own.Release(w)
		}
		p.done <- struct{}{}
	}
}

// Dispatch partitions [0, n) into contiguous chunks aligned to align
// (block size for BSR kernels, 1 otherwise), runs k over the chunks on
// the workers, and returns when every row is written. The partition
// telescopes — each chunk starts where the previous ended, the first
// starts at 0, and the last is clamped to n — so the chunks are pairwise
// disjoint and cover [0, n) exactly; the range-partition lint rule proves
// this shape at compile time. Small or misaligned problems fall back to
// a single serial call, which keeps results bitwise identical to the
// serial kernel for every pool size.
func (p *Pool) Dispatch(k Kernel, x, y []float64, n, align int) {
	p.DispatchTask(nil, k, x, y, n, align)
}

// DispatchTask is Dispatch with request-scoped attribution: the rows
// each worker executes are additionally credited to the task (nil t is
// exactly Dispatch). The partition, execution order and results are
// identical — the task only observes.
func (p *Pool) DispatchTask(t *obs.Task, k Kernel, x, y []float64, n, align int) {
	if n <= 0 {
		return
	}
	if align < 1 {
		align = 1
	}
	units := n / align
	nw := p.nw
	if nw > units {
		nw = units
	}
	if nw <= 1 {
		k.MulVecRange(x, y, 0, n)
		return
	}
	p.mu.Lock()
	q := units / nw
	r := units % nw
	lo := 0
	for w := 0; w < nw; w++ {
		u := q
		if w < r {
			u++
		}
		hi := lo + u*align
		if w == nw-1 {
			hi = n
		}
		p.jobs <- job{k: k, x: x, y: y, lo: lo, hi: hi, task: t}
		lo = hi
	}
	for w := 0; w < nw; w++ {
		<-p.done
	}
	p.mu.Unlock()
}
