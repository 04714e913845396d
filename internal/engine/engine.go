// Package engine is the concurrent multi-core face of the system: a
// pool of K worker "cores", each owning an exclusive Montgomery
// multiplier/exponentiator (reference arithmetic or the cycle-accurate
// MMMC), fed from a bounded priority-lane scheduler (one EDF lane per
// qos.Class, strict priority with aging across lanes — see lanes.go). It is the software
// analogue of the replicated-core scaling move in the quad-core RSA
// processor literature: the paper's systolic array pipelines bit
// operations *inside* one multiplication; the engine replicates whole
// MMM cores and schedules independent exponentiations across them.
//
// Design rules:
//
//   - a mont.Ctx is immutable → shared freely via an LRU cache, so
//     repeated moduli skip the R⁻¹/R² precomputation;
//   - a Multiplier/Exponentiator owns mutable circuit state → strictly
//     one per worker, never shared (see core.Multiplier's concurrency
//     note);
//   - batches preserve input order: results[i] always answers jobs[i];
//   - cancellation is prompt: a cancelled context stops submission,
//     and queued-but-unexecuted jobs come back marked with ctx.Err().
package engine

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/errs"
	"repro/internal/expo"
	"repro/internal/faults"
	"repro/internal/integrity"
	"repro/internal/kits"
	"repro/internal/mont"
	"repro/internal/qos"
	"repro/internal/systolic"
)

// Option configures an Engine.
type Option func(*config)

type config struct {
	workers   int
	queue     int
	cacheSize int
	kit       kits.Kit
	table     *kits.Table // pinned auto-selection table (tests); nil = process table
	variant   systolic.Variant
	observer  Observer

	integrity          bool
	integritySample    float64 // modexp full-recheck rate in [0, 1]
	integrityRecompute bool
	injector           *faults.Injector
	quarBase, quarMax  time.Duration
	watchdogK          float64
	clk                clock

	laneAging time.Duration
	qosObs    QoSObserver

	// Test seams: override how workers build their cores (e.g. a
	// deliberately panicking fake). nil = the real constructors.
	mulFactory func(worker int, ctx *mont.Ctx) (multiplier, error)
	expFactory func(worker int, ctx *mont.Ctx) (exponentiator, error)
}

// WithWorkers sets the number of worker cores (default GOMAXPROCS).
func WithWorkers(k int) Option { return func(c *config) { c.workers = k } }

// WithQueueDepth bounds the submission queue (default 4× workers).
// Submission blocks — respecting the caller's context — once the queue
// is full, providing backpressure instead of unbounded memory growth.
func WithQueueDepth(d int) Option { return func(c *config) { c.queue = d } }

// WithKit selects the compute kit worker cores run on: kits.Model
// (radix-2 reference arithmetic, the default), kits.Sim (every product
// through the cycle-accurate MMMC, each core simulating its own
// circuit), kits.CIOS (the radix-2^64 word-serial fast path), kits.Big
// (math/big oracle), or kits.Auto (pick the fastest measured kit per
// job from the benchmark table, by modulus size and op shape).
func WithKit(k kits.Kit) Option { return func(c *config) { c.kit = k } }

// WithKitAuto is WithKit(kits.Auto).
func WithKitAuto() Option { return WithKit(kits.Auto) }

// WithArrayVariant selects the simulated array variant Sim-kit cores
// use. It has no effect on other kits.
func WithArrayVariant(v systolic.Variant) Option { return func(c *config) { c.variant = v } }

// WithKitTable pins the benchmark table used to resolve kits.Auto,
// instead of the process-cached startup microbenchmark. Tests use this
// to make per-job selection deterministic.
func WithKitTable(t *kits.Table) Option { return func(c *config) { c.table = t } }

// WithCtxCacheSize bounds the per-modulus context LRU (default 128).
func WithCtxCacheSize(n int) Option { return func(c *config) { c.cacheSize = n } }

// WithObserver attaches a lifecycle observer (see Observer). The
// default is none, in which case every callback site is a single nil
// check — instrumentation costs nothing unless asked for.
func WithObserver(o Observer) Option { return func(c *config) { c.observer = o } }

// WithIntegrityCheck turns on per-operation result verification.
// Every Montgomery product is checked against the residue identity
// T·R ≡ x·y (mod N) plus the T < 2N range invariant, and sample ∈
// [0, 1] of exponentiations get a full big.Int re-verification (1
// checks every job — the setting the end-to-end "zero wrong answers"
// guarantee assumes; see internal/integrity for the cost model). A
// result that fails its check never reaches the caller: the offending
// core is quarantined and, unless WithIntegrityRecompute(false) was
// given, the job is recomputed — on a different core when one is
// healthy, otherwise inline on the trusted reference arithmetic.
func WithIntegrityCheck(sample float64) Option {
	return func(c *config) { c.integrity = true; c.integritySample = sample }
}

// WithIntegrityRecompute controls what happens to a job whose result
// failed an integrity check (default true: recompute it, so callers
// see a correct answer and only the metrics betray the fault). With
// recompute off the job fails with a wrapped ErrIntegrity instead —
// the mode chaos tests use to make corruption visible on the wire,
// and the mode a cluster front end wants so it can fail the job over
// to a different backend rather than pay the recompute here.
func WithIntegrityRecompute(on bool) Option {
	return func(c *config) { c.integrityRecompute = on }
}

// WithFaultInjector wires a deterministic fault injector (see
// internal/faults) between each worker core and its results —
// simulated hardware corruption for tests, loadgen and chaos runs.
func WithFaultInjector(in *faults.Injector) Option {
	return func(c *config) { c.injector = in }
}

// WithQuarantineBackoff sets the re-probe schedule for quarantined
// cores: the first known-answer probe runs after base, doubling up to
// max, with ±50% jitter (default 100ms…10s).
func WithQuarantineBackoff(base, max time.Duration) Option {
	return func(c *config) { c.quarBase = base; c.quarMax = max }
}

// WithWatchdog arms the per-job watchdog: a job still running after
// k × its hardware cycle bound (3l+4 cycles for a Montgomery product,
// the Eq. 10 upper bound 6l²+14l+12 for an exponentiation, budgeted
// at 1µs per cycle — three orders of magnitude above the reference
// arithmetic's real per-cycle cost) is declared stuck, failed with a
// wrapped ErrIntegrity, and its core quarantined. k ≤ 0 (the default)
// disables the watchdog.
func WithWatchdog(k float64) Option {
	return func(c *config) { c.watchdogK = k }
}

// QoSObserver receives the lane scheduler's tenant-facing events. The
// server daemon wires the qos.Plane here so engine sheds land on the
// montsys_qos_* series with the tenant that owned the job.
type QoSObserver interface {
	// Shed reports a queued job evicted by the shed-lowest-class-first
	// overload policy.
	Shed(tenant string, class qos.Class)
	// LaneDepth reports a lane's depth after a queue mutation.
	LaneDepth(class qos.Class, depth int)
}

// WithQoSObserver attaches a QoS observer (see QoSObserver). Like
// WithObserver, the default is none and costs a nil check per event.
func WithQoSObserver(o QoSObserver) Option { return func(c *config) { c.qosObs = o } }

// WithLaneAging sets the scheduler's aging quantum: every full quantum
// a lane's head job has waited promotes that lane one priority class,
// bounding how long sustained higher-priority load can delay it
// (default 100ms). Smaller quanta trade strictness of priority for a
// tighter starvation bound.
func WithLaneAging(d time.Duration) Option { return func(c *config) { c.laneAging = d } }

// withClock overrides the engine's time source (tests only).
func withClock(c clock) Option { return func(cfg *config) { cfg.clk = c } }

// withFactories overrides how workers build their cores (tests only).
func withFactories(
	mf func(worker int, ctx *mont.Ctx) (multiplier, error),
	xf func(worker int, ctx *mont.Ctx) (exponentiator, error),
) Option {
	return func(c *config) { c.mulFactory = mf; c.expFactory = xf }
}

// Engine schedules Montgomery work across a pool of worker cores. It is
// safe for concurrent use by multiple goroutines. Close drains in-flight
// work; submissions after Close fail with ErrEngineClosed.
type Engine struct {
	cfg   config
	sched *laneScheduler
	cache *ctxCache

	mu     sync.RWMutex // guards closed vs. submissions
	closed bool
	wg     sync.WaitGroup

	// closing wakes quarantined workers parked in their probe backoff
	// so Close never has to wait out a reinstatement timer.
	closing chan struct{}
	healthy atomic.Int64 // workers not currently quarantined
	integ   *integrity.System
	iobs    IntegrityObserver
	sobs    SpanObserver

	// sel resolves kits.Auto to a concrete kit per job; nil unless the
	// engine was built with WithKitAuto.
	sel *kits.Selector

	ctr counters
}

// New builds and starts an engine.
func New(opts ...Option) (*Engine, error) {
	cfg := config{
		workers:            runtime.GOMAXPROCS(0),
		kit:                kits.Model,
		variant:            systolic.Guarded,
		cacheSize:          128,
		integrityRecompute: true,
		quarBase:           100 * time.Millisecond,
		quarMax:            10 * time.Second,
		clk:                realClock{},
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers < 1 {
		return nil, fmt.Errorf("engine: need at least one worker, got %d", cfg.workers)
	}
	if !cfg.kit.Valid() {
		return nil, fmt.Errorf("engine: unknown kit %v: %w", cfg.kit, errs.ErrOperandRange)
	}
	if cfg.queue <= 0 {
		cfg.queue = 4 * cfg.workers
	}
	if cfg.cacheSize < 1 {
		return nil, fmt.Errorf("engine: context cache size must be positive, got %d", cfg.cacheSize)
	}
	if cfg.integritySample < 0 {
		cfg.integritySample = 0
	}
	if cfg.integritySample > 1 {
		cfg.integritySample = 1
	}
	if cfg.quarBase <= 0 {
		cfg.quarBase = 100 * time.Millisecond
	}
	if cfg.quarMax < cfg.quarBase {
		cfg.quarMax = cfg.quarBase
	}
	e := &Engine{
		cfg:     cfg,
		sched:   newLaneScheduler(cfg.queue, cfg.laneAging),
		cache:   newCtxCache(cfg.cacheSize),
		closing: make(chan struct{}),
	}
	if cfg.qosObs != nil {
		e.sched.onDepth = cfg.qosObs.LaneDepth
	}
	e.healthy.Store(int64(cfg.workers))
	if cfg.kit == kits.Auto {
		t := cfg.table
		if t == nil {
			t = kits.ProcessTable() // bounded microbenchmark, once per process
		}
		e.sel = kits.NewSelector(t)
	}
	if cfg.integrity {
		e.integ = integrity.NewSystem(0)
	}
	if io, ok := cfg.observer.(IntegrityObserver); ok {
		e.iobs = io
	}
	if so, ok := cfg.observer.(SpanObserver); ok {
		e.sobs = so
	}
	e.cache.obs = cfg.observer
	e.wg.Add(cfg.workers)
	for i := 0; i < cfg.workers; i++ {
		w := newWorker(e, i)
		go w.loop()
	}
	return e, nil
}

// Workers returns the number of worker cores.
func (e *Engine) Workers() int { return e.cfg.workers }

// Kit returns the configured compute kit (possibly kits.Auto, in which
// case the concrete kit varies per job).
func (e *Engine) Kit() kits.Kit { return e.cfg.kit }

// Close stops accepting work, waits for queued and in-flight jobs to
// finish, and shuts the workers down. Closing twice returns
// ErrEngineClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return fmt.Errorf("engine: Close: %w", errs.ErrEngineClosed)
	}
	e.closed = true
	e.sched.close()
	close(e.closing)
	e.mu.Unlock()
	e.wg.Wait()
	return nil
}

// HealthyWorkers reports how many worker cores are currently serving
// (not quarantined). It equals Workers() unless integrity failures,
// panics or watchdog timeouts have benched cores.
func (e *Engine) HealthyWorkers() int { return int(e.healthy.Load()) }

// ModExpJob is one modular exponentiation: Base^Exp mod N.
type ModExpJob struct {
	N    *big.Int // odd modulus ≥ 3
	Base *big.Int // in [0, N-1]
	Exp  *big.Int // > 0

	// Deadline, if nonzero, fails the job with context.DeadlineExceeded
	// when a core picks it up after the instant has passed — a per-job
	// tightening of the batch context's deadline.
	Deadline time.Time
}

// ModExpResult answers one ModExpJob. Err is nil on success;
// context.Canceled / context.DeadlineExceeded mark jobs the batch gave
// up on, and sentinel-wrapped errors (ErrEvenModulus, ErrOperandRange,
// ...) mark invalid jobs. Value and Report are only meaningful when
// Err is nil.
type ModExpResult struct {
	Value  *big.Int
	Report expo.Report
	Err    error
}

// MontJob is one raw Montgomery product X·Y·R⁻¹ mod 2N, operands in
// [0, 2N-1].
type MontJob struct {
	N *big.Int
	X *big.Int
	Y *big.Int

	Deadline time.Time
}

// MontResult answers one MontJob.
type MontResult struct {
	Value *big.Int
	Err   error
}

// jobKind discriminates the payload of a queued job.
type jobKind uint8

const (
	kindModExp jobKind = iota
	kindMont
)

type job struct {
	kind     jobKind
	ctx      context.Context
	deadline time.Time
	enqueued time.Time

	// QoS identity, read off the submission context: class picks the
	// scheduling lane, tenant attributes a shed to its owner. seq and
	// heapIdx are the lane scheduler's bookkeeping (FIFO tie-break and
	// heap position for mid-lane eviction).
	tenant  string
	class   qos.Class
	seq     uint64
	heapIdx int

	n, a, b *big.Int // modexp: base/exp; mont: x/y

	// redo counts integrity-driven requeues: a job whose result failed
	// its check is re-enqueued so a different (healthy) core recomputes
	// it, at most maxRedo times before falling back to the inline
	// reference oracle.
	redo int

	expOut  *ModExpResult
	montOut *MontResult
	wg      *sync.WaitGroup
}

// expired returns the reason a job must not run: batch cancellation or
// a passed per-job deadline.
func (j *job) expired(now time.Time) error {
	if err := j.ctx.Err(); err != nil {
		return err
	}
	if !j.deadline.IsZero() && now.After(j.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// submit enqueues a job on its class lane. Under backpressure it first
// sheds a queued job of a strictly lower class (overload punishes the
// least urgent work, not whoever submits next), and only blocks — until
// queue space frees up, the context is cancelled, or the engine closes —
// when nothing below the job's class is queued.
func (e *Engine) submit(ctx context.Context, j *job) error {
	id := qos.FromContext(ctx)
	j.tenant, j.class = id.Tenant, id.Class
	if j.class >= qos.NumClasses {
		j.class = qos.BestEffort
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return fmt.Errorf("engine: submit: %w", errs.ErrEngineClosed)
	}
	victim, err := e.sched.push(ctx, j)
	if err != nil {
		return err
	}
	e.ctr.submitted.Add(1)
	depth := e.ctr.queueDepth.Add(1)
	setMax(&e.ctr.queueHighWater, depth)
	if e.cfg.observer != nil {
		e.cfg.observer.JobSubmitted(j.kind.kindName())
	}
	if victim != nil {
		e.finalizeShed(victim)
	}
	return nil
}

// finalizeShed completes a job the scheduler evicted to make room for
// higher-class work: it fails with ErrOverloaded (the same transient
// contract as an admission fast-fail — retry with backoff elsewhere)
// and is attributed to its tenant and class on the QoS plane.
func (e *Engine) finalizeShed(v *job) {
	e.ctr.queueDepth.Add(-1)
	e.ctr.sheds.Add(1)
	e.ctr.failed.Add(1)
	e.ctr.failedLat.Observe(time.Since(v.enqueued).Nanoseconds())
	v.fail(fmt.Errorf("engine: %s job shed under overload: %w", v.class, errs.ErrOverloaded))
	if e.cfg.qosObs != nil {
		e.cfg.qosObs.Shed(v.tenant, v.class)
	}
	v.wg.Done()
}

// requeue puts a job whose result failed its integrity check back on
// the queue so a different core picks it up. It never blocks or sheds:
// a full queue or a closing engine returns false and the caller
// recomputes inline instead — a corrupted job must not deadlock the
// worker that detected the corruption.
func (e *Engine) requeue(j *job) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return false
	}
	if !e.sched.tryPush(j) {
		return false
	}
	depth := e.ctr.queueDepth.Add(1)
	setMax(&e.ctr.queueHighWater, depth)
	return true
}

// ModExp runs one exponentiation through the pool and waits for it.
func (e *Engine) ModExp(ctx context.Context, n, base, exp *big.Int) (*big.Int, expo.Report, error) {
	res, err := e.ModExpBatch(ctx, []ModExpJob{{N: n, Base: base, Exp: exp}})
	if err != nil {
		return nil, expo.Report{}, err
	}
	r := res[0]
	return r.Value, r.Report, r.Err
}

// ModExpBatch fans the jobs across the worker cores and waits for all
// of them. results[i] answers jobs[i] regardless of completion order.
//
// On cancellation the call returns promptly with ctx.Err(): jobs that
// never reached a core come back with Err = ctx.Err() (never-submitted
// ones immediately, queued ones as workers drain them), and jobs that
// already finished keep their results — partial progress is preserved
// and clearly marked, never silently dropped.
func (e *Engine) ModExpBatch(ctx context.Context, jobs []ModExpJob) ([]ModExpResult, error) {
	results := make([]ModExpResult, len(jobs))
	var wg sync.WaitGroup
	var submitErr error
	for i := range jobs {
		j := &job{
			kind:     kindModExp,
			ctx:      ctx,
			deadline: jobs[i].Deadline,
			enqueued: time.Now(),
			n:        jobs[i].N,
			a:        jobs[i].Base,
			b:        jobs[i].Exp,
			expOut:   &results[i],
			wg:       &wg,
		}
		wg.Add(1)
		if err := e.submit(ctx, j); err != nil {
			wg.Done()
			for k := i; k < len(jobs); k++ {
				results[k].Err = err
			}
			submitErr = err
			break
		}
	}
	wg.Wait() // in-flight jobs only; cancelled queued jobs drain fast
	if submitErr != nil {
		return results, submitErr
	}
	return results, ctx.Err()
}

// Mont runs one Montgomery product through the pool and waits for it.
func (e *Engine) Mont(ctx context.Context, n, x, y *big.Int) (*big.Int, error) {
	res, err := e.MontBatch(ctx, []MontJob{{N: n, X: x, Y: y}})
	if err != nil {
		return nil, err
	}
	return res[0].Value, res[0].Err
}

// MontBatch is ModExpBatch for raw Montgomery products: order
// preserving, cancellation-prompt, per-job deadlines honoured.
func (e *Engine) MontBatch(ctx context.Context, jobs []MontJob) ([]MontResult, error) {
	results := make([]MontResult, len(jobs))
	var wg sync.WaitGroup
	var submitErr error
	for i := range jobs {
		j := &job{
			kind:     kindMont,
			ctx:      ctx,
			deadline: jobs[i].Deadline,
			enqueued: time.Now(),
			n:        jobs[i].N,
			a:        jobs[i].X,
			b:        jobs[i].Y,
			montOut:  &results[i],
			wg:       &wg,
		}
		wg.Add(1)
		if err := e.submit(ctx, j); err != nil {
			wg.Done()
			for k := i; k < len(jobs); k++ {
				results[k].Err = err
			}
			submitErr = err
			break
		}
	}
	wg.Wait()
	if submitErr != nil {
		return results, submitErr
	}
	return results, ctx.Err()
}
