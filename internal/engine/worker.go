package engine

import (
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"repro/internal/errs"
	"repro/internal/expo"
	"repro/internal/faults"
	"repro/internal/integrity"
	"repro/internal/kits"
	"repro/internal/obs"
)

// exponentiator and multiplier are the result-bearing surfaces the
// worker actually calls through. Interfaces rather than the concrete
// types so a fault injector (internal/faults) or a test fake can sit
// between the worker and the real core.
type exponentiator interface {
	ModExp(base, exp *big.Int) (*big.Int, expo.Report, error)
}

type multiplier interface {
	Mont(x, y *big.Int) (*big.Int, error)
}

// coreEntry is one (kit, modulus) compute core and the two job shapes
// over it: the exponentiator computes through the core, and the core
// itself answers Mont jobs. Each shape may be replaced by a test
// factory and wrapped by the fault injector; core stays the unwrapped
// kit, whose Cycles feed the simulated-cycle accounting.
type coreEntry struct {
	core kits.Core
	ex   exponentiator
	mul  multiplier
}

// kit is a worker's disposable compute state: its core cache, its
// fault-injection handle and its integrity sampler. It exists as one
// swappable unit for two reasons. Quarantine replaces the kit so a
// core suspected of corruption restarts from fresh circuits — the
// software analogue of resetting the cell array. And the watchdog
// replaces it when it abandons a stuck job: the timed-out goroutine
// keeps exclusive ownership of the old kit (map, circuits, rand
// streams are all single-owner), so worker and stray never share
// mutable state.
type kit struct {
	cores   map[string]coreEntry
	fcore   *faults.Core
	sampler *integrity.Sampler
}

// worker is one engine core. It owns its kit outright — simulated
// circuits and word scratch are mutable and must never be shared
// (kits.Core's concurrency contract) — while the mont.Ctx inside comes
// from the engine-wide LRU, shared safely because a Ctx is immutable.
// Per-worker caches avoid rebuilding circuits for repeated moduli;
// they are bounded and simply reset when full, which is cheap and
// keeps the common steady-state (few hot moduli) fully cached.
type worker struct {
	eng *Engine
	id  int
	kit *kit

	quar       bool       // benched by an integrity failure
	probeFails int        // consecutive failed re-probes, drives backoff
	rng        *rand.Rand // backoff jitter, deterministic per worker
}

// maxLocal bounds each worker's core cache.
const maxLocal = 32

// maxRedo bounds integrity-driven requeues per job before the worker
// falls back to the inline reference oracle.
const maxRedo = 2

func newWorker(e *Engine, id int) *worker {
	w := &worker{
		eng: e,
		id:  id,
		rng: rand.New(rand.NewSource(int64(id)*7919 + 1)),
	}
	w.kit = w.newKit()
	return w
}

func (w *worker) newKit() *kit {
	k := &kit{cores: make(map[string]coreEntry)}
	if in := w.eng.cfg.injector; in != nil {
		k.fcore = in.Core(w.id)
	}
	if w.eng.cfg.integrity {
		k.sampler = integrity.NewSampler(w.eng.cfg.integritySample)
	}
	return k
}

func (w *worker) loop() {
	defer w.eng.wg.Done()
	for {
		j, ok := w.eng.sched.pop(time.Now())
		if !ok {
			return
		}
		w.eng.ctr.queueDepth.Add(-1)
		if w.run(j) {
			j.wg.Done()
		}
		w.quarantineWait()
	}
}

// jobResult is what one compute attempt produced. corrupt marks
// results the engine must not trust: a panic, a watchdog timeout, or
// a failed integrity check — all of which quarantine the core.
type jobResult struct {
	v       *big.Int
	rep     expo.Report
	wk      work
	kt      kits.Kit // concrete kit that produced the value
	err     error
	corrupt bool
}

// kitFor resolves the concrete kit for one job: the engine's fixed kit,
// or — under kits.Auto — the benchmark table's pick for this operation
// shape and modulus size.
func (w *worker) kitFor(kind jobKind, n *big.Int) kits.Kit {
	if w.eng.sel == nil {
		return w.eng.cfg.kit
	}
	op := kits.OpModExp
	if kind == kindMont {
		op = kits.OpMont
	}
	return w.eng.sel.Pick(op, n.BitLen())
}

// run executes one dequeued job, splitting its latency into queue wait
// (enqueue→dequeue) and execute time (dequeue→finish). Completed jobs
// feed the latency/exec histograms; failed and canceled jobs get their
// own histogram instead of silently dropping out of the accounting.
// It returns false when the job was requeued for recompute on another
// core — the job is not finished and its WaitGroup must not be
// released yet.
func (w *worker) run(j *job) bool {
	ctr := &w.eng.ctr
	ob := w.eng.cfg.observer
	dequeued := time.Now()
	queueWait := dequeued.Sub(j.enqueued)
	ctr.queueWait.Observe(queueWait.Nanoseconds())
	if ob != nil {
		ob.JobStarted(j.kind.kindName(), w.id, queueWait)
	}

	// doneKit and integDur accumulate what the span reports beyond the
	// legacy JobFinished payload: the concrete kit (set on the OK path
	// only — a failed job's kit field would be a zero-value lie) and
	// the tail of execution spent re-verifying the result.
	doneKit := kits.Kit(-1)
	var integDur time.Duration

	finish := func(outcome string, muls, modelCycles, simCycles int64) {
		exec := time.Since(dequeued)
		switch outcome {
		case outcomeOK:
			ctr.completed.Add(1)
			ctr.latency.Observe((queueWait + exec).Nanoseconds())
			ctr.execTime.Observe(exec.Nanoseconds())
			if doneKit >= 0 && int(doneKit) < kits.NumKits {
				ctr.kitLatency[doneKit].Observe((queueWait + exec).Nanoseconds())
			}
		case outcomeCanceled:
			ctr.canceled.Add(1)
			ctr.failedLat.Observe((queueWait + exec).Nanoseconds())
		case outcomeRequeued:
			// Neither terminal nor failed: the job lives on in the queue
			// and its next run does the accounting.
		default:
			ctr.failed.Add(1)
			ctr.failedLat.Observe((queueWait + exec).Nanoseconds())
		}
		switch {
		case w.eng.sobs != nil:
			s := obs.Span{
				Name: j.kind.kindName(), Worker: w.id, Outcome: outcome,
				Start: j.enqueued, QueueWait: queueWait, Exec: exec,
				Integrity: integDur,
				Muls:      muls, ModelCycles: modelCycles, SimCycles: simCycles,
			}
			if doneKit >= 0 && int(doneKit) < kits.NumKits {
				s.Kit = doneKit.String()
			}
			if tc, ok := obs.TraceFromContext(j.ctx); ok && tc.Sampled {
				s.TraceID, s.Parent, s.SpanID = tc.TraceID, tc.SpanID, obs.NewSpanID()
			}
			w.eng.sobs.JobSpan(s)
		case ob != nil:
			ob.JobFinished(j.kind.kindName(), w.id, outcome, j.enqueued,
				queueWait, exec, muls, modelCycles, simCycles)
		}
	}

	if err := j.expired(dequeued); err != nil {
		j.fail(err)
		finish(outcomeCanceled, 0, 0, 0)
		return true
	}
	if j.n == nil || j.a == nil || j.b == nil {
		j.fail(fmt.Errorf("engine: nil job operand: %w", errs.ErrOperandRange))
		finish(outcomeFailed, 0, 0, 0)
		return true
	}

	res := w.execute(j)
	if !res.corrupt && res.err == nil && w.eng.cfg.integrity {
		vStart := time.Now()
		ierr := w.verify(j, res.v)
		integDur = time.Since(vStart)
		if ierr != nil {
			ctr.integrityFailures.Add(1)
			w.eng.integrityEvent("check_failed", w.id)
			res = jobResult{err: ierr, corrupt: true}
		}
	}
	if res.corrupt {
		w.quarantine()
		if w.eng.cfg.integrity && w.eng.cfg.integrityRecompute {
			if w.redirect(j) {
				finish(outcomeRequeued, 0, 0, 0)
				return false
			}
			res = w.recomputeInline(j, res)
		}
	}
	if res.err != nil {
		j.fail(res.err)
		finish(outcomeFailed, 0, 0, 0)
		return true
	}

	switch j.kind {
	case kindModExp:
		j.expOut.Value = res.v
		j.expOut.Report = res.rep
		j.expOut.Err = nil
	case kindMont:
		j.montOut.Value = res.v
		j.montOut.Err = nil
	}
	ctr.muls.Add(res.wk.muls)
	ctr.modelCycles.Add(res.wk.modelCycles)
	ctr.simCycles.Add(res.wk.simCycles)
	if res.kt >= 0 && int(res.kt) < kits.NumKits {
		ctr.kitJobs[res.kt].Add(1)
		doneKit = res.kt
	}
	finish(outcomeOK, res.wk.muls, res.wk.modelCycles, res.wk.simCycles)
	return true
}

// work is one job's own accounting, reported to the observer and added
// to the engine-wide counters.
type work struct {
	muls, modelCycles, simCycles int64
}

// fail records err on whichever result slot the job carries.
func (j *job) fail(err error) {
	switch j.kind {
	case kindModExp:
		j.expOut.Err = err
	case kindMont:
		j.montOut.Err = err
	}
}

// execute runs the job's arithmetic, under the watchdog when armed.
// On a watchdog timeout the worker abandons its kit to the stuck
// goroutine (see kit) and reports the job corrupt.
func (w *worker) execute(j *job) jobResult {
	if w.eng.cfg.watchdogK <= 0 {
		return w.compute(j, w.kit)
	}
	ctx, err := w.eng.cache.get(j.n)
	if err != nil {
		return jobResult{err: err}
	}
	budget := watchdogBudget(w.eng.cfg.watchdogK, j.kind, ctx.L)
	ch := make(chan jobResult, 1)
	k := w.kit
	go func() { ch <- w.compute(j, k) }()
	select {
	case res := <-ch:
		return res
	case <-w.eng.cfg.clk.After(budget):
		w.eng.ctr.watchdogTimeouts.Add(1)
		w.eng.integrityEvent("watchdog", w.id)
		w.kit = w.newKit()
		return jobResult{
			err: fmt.Errorf("engine: worker %d: watchdog: %s stuck past %v (k=%g × %d cycles): %w",
				w.id, j.kind.kindName(), budget, w.eng.cfg.watchdogK,
				cycleBound(j.kind, ctx.L), errs.ErrIntegrity),
			corrupt: true,
		}
	}
}

// cycleBound is the paper's cycle count for one operation at modulus
// length l: 3l+4 for a Montgomery product, the Eq. 10 upper bound for
// a full exponentiation.
func cycleBound(kind jobKind, l int) int64 {
	if kind == kindMont {
		return int64(3*l + 4)
	}
	ll := int64(l)
	return 6*ll*ll + 14*ll + 12
}

// watchdogCycleTime is the wall-time budget granted per hardware
// cycle. The reference arithmetic spends nanoseconds per cycle and the
// gate-level simulation microseconds, so 1µs × k leaves generous
// headroom for the Model path while still bounding a genuinely hung
// core; simulation users should scale k accordingly.
const watchdogCycleTime = time.Microsecond

func watchdogBudget(k float64, kind jobKind, l int) time.Duration {
	d := time.Duration(k * float64(cycleBound(kind, l)) * float64(watchdogCycleTime))
	if d <= 0 {
		d = watchdogCycleTime
	}
	return d
}

// compute runs the job on the given kit and returns its result. A
// panicking core is recovered here: the panic fails this job with a
// wrapped ErrIntegrity instead of killing the process, and marks the
// result corrupt so the core is quarantined.
func (w *worker) compute(j *job, k *kit) (res jobResult) {
	defer func() {
		if r := recover(); r != nil {
			w.eng.ctr.panics.Add(1)
			w.eng.integrityEvent("panic", w.id)
			res = jobResult{
				err: fmt.Errorf("engine: worker %d: core panicked: %v: %w",
					w.id, r, errs.ErrIntegrity),
				corrupt: true,
			}
		}
	}()
	kt := w.kitFor(j.kind, j.n)
	ce, err := w.coreIn(k, j.n, kt)
	if err != nil {
		return jobResult{err: err}
	}
	switch j.kind {
	case kindModExp:
		v, rep, err := ce.ex.ModExp(j.a, j.b)
		if err != nil {
			return jobResult{err: err}
		}
		return jobResult{v: v, rep: rep, kt: kt, wk: work{
			// Squares + Multiplies plus the explicit pre- and post-products.
			muls:        int64(rep.Squares + rep.Multiplies + 2),
			modelCycles: int64(rep.TotalCycles),
			simCycles:   int64(rep.SimulatedMulCycles),
		}}
	default: // kindMont
		before := ce.core.Cycles()
		v, err := ce.mul.Mont(j.a, j.b)
		if err != nil {
			return jobResult{err: err}
		}
		return jobResult{v: v, kt: kt, wk: work{
			muls:      1,
			simCycles: int64(ce.core.Cycles() - before),
		}}
	}
}

// verify applies the integrity checks: every Montgomery product gets
// the full residue-identity check (no witness crosses the multiplier
// interface, and residues alone cannot verify a mod-N congruence —
// see internal/integrity), and a sampled fraction of exponentiations
// get the big.Int re-verification.
func (w *worker) verify(j *job, v *big.Int) error {
	switch j.kind {
	case kindMont:
		ctx, err := w.eng.cache.get(j.n)
		if err != nil {
			return err
		}
		return integrity.CheckMont(ctx, j.a, j.b, v)
	case kindModExp:
		if w.kit.sampler.Next() {
			return integrity.CheckModExp(j.n, j.a, j.b, v)
		}
	}
	return nil
}

// redirect requeues a corrupted job so a different core recomputes it.
// False means the caller must recompute inline: the job already used
// its retries, no healthy core exists to pick it up, the queue is
// full, or the engine is closing.
func (w *worker) redirect(j *job) bool {
	if j.redo >= maxRedo || w.eng.healthy.Load() <= 0 {
		return false
	}
	j.redo++
	j.enqueued = time.Now()
	if !w.eng.requeue(j) {
		return false
	}
	w.eng.ctr.recomputes.Add(1)
	w.eng.integrityEvent("recompute", w.id)
	return true
}

// recomputeInline is the last-resort recovery path: recompute on the
// trusted reference arithmetic, verify, and only then hand the value
// back. It bypasses the worker's (possibly fault-wrapped) cores
// entirely.
func (w *worker) recomputeInline(j *job, failed jobResult) jobResult {
	w.eng.ctr.recomputes.Add(1)
	w.eng.integrityEvent("recompute", w.id)
	ctx, err := w.eng.cache.get(j.n)
	if err != nil {
		return jobResult{err: err}
	}
	switch j.kind {
	case kindMont:
		v, err := w.eng.integ.RecomputeMont(ctx, j.a, j.b)
		if err != nil {
			return jobResult{err: err}
		}
		return jobResult{v: v, kt: kits.Model, wk: work{muls: 1}}
	case kindModExp:
		ex, err := expo.NewKitFromCtx(ctx, kits.Model)
		if err != nil {
			return jobResult{err: err}
		}
		v, rep, err := ex.ModExp(j.a, j.b)
		if err != nil {
			return jobResult{err: err}
		}
		if ierr := integrity.CheckModExp(j.n, j.a, j.b, v); ierr != nil {
			return jobResult{err: ierr}
		}
		return jobResult{v: v, rep: rep, kt: kits.Model, wk: work{
			muls:        int64(rep.Squares + rep.Multiplies + 2),
			modelCycles: int64(rep.TotalCycles),
		}}
	}
	return failed
}

// cacheKey keys the worker-local core cache by (kit, modulus): under
// kits.Auto the same modulus can legitimately need cores on different
// kits for different op shapes.
func cacheKey(kt kits.Kit, n *big.Int) string {
	return string(byte(kt)) + string(n.Bytes())
}

// coreIn returns the kit's exclusive core for modulus n on compute kit
// kt, building it over the shared LRU-cached context on first use —
// one core backing both job shapes, and no other object than the
// exponentiator over it — and wrapping each shape with the fault
// injector when one is configured.
func (w *worker) coreIn(k *kit, n *big.Int, kt kits.Kit) (coreEntry, error) {
	key := cacheKey(kt, n)
	if ce, ok := k.cores[key]; ok {
		return ce, nil
	}
	ctx, err := w.eng.cache.get(n)
	if err != nil {
		return coreEntry{}, err
	}
	c, err := kits.NewCore(ctx, kt, w.eng.cfg.variant)
	if err != nil {
		return coreEntry{}, err
	}
	ce := coreEntry{core: c, ex: expo.NewFromCore(ctx, kt, c), mul: c}
	if f := w.eng.cfg.mulFactory; f != nil {
		if ce.mul, err = f(w.id, ctx); err != nil {
			return coreEntry{}, err
		}
	}
	if f := w.eng.cfg.expFactory; f != nil {
		if ce.ex, err = f(w.id, ctx); err != nil {
			return coreEntry{}, err
		}
	}
	if k.fcore != nil {
		ce.ex = k.fcore.WrapExponentiator(ce.ex, ctx.L)
		ce.mul = k.fcore.WrapMultiplier(ce.mul, ctx.L+1)
	}
	if len(k.cores) >= maxLocal {
		k.cores = make(map[string]coreEntry)
	}
	k.cores[key] = ce
	return ce, nil
}
