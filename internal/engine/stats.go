package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/kits"
	"repro/internal/obs"
	"repro/internal/qos"
)

// counters is the engine's lock-free stats block, updated from every
// worker and the submission path. Latency is no longer a single summed
// mean: completed jobs, failed/canceled jobs, queue wait and execute
// time each get their own log-bucketed histogram, so Stats can report
// p50/p90/p99/max and split scheduling delay from compute.
type counters struct {
	submitted      atomic.Int64
	completed      atomic.Int64
	failed         atomic.Int64
	canceled       atomic.Int64
	queueDepth     atomic.Int64
	queueHighWater atomic.Int64 // deepest the queue has been
	sheds          atomic.Int64 // queued jobs evicted lowest-class-first

	muls        atomic.Int64 // Montgomery products executed
	modelCycles atomic.Int64 // paper-formula cycles (§4.5 report model)
	simCycles   atomic.Int64 // measured MMMC cycles (Sim kit)

	// kitJobs counts completed jobs per concrete compute kit — under
	// kits.Auto this is where the selector's choices become visible.
	kitJobs [kits.NumKits]atomic.Int64

	// kitLatency distributes completed-job latency per concrete kit.
	// kitJobs says the selector picked CIOS; these say whether that
	// pick was actually faster — an Auto-selection regression moves a
	// kit's percentiles while the aggregate latency histogram smears
	// the shift across every kit.
	kitLatency [kits.NumKits]obs.Histogram

	integrityFailures atomic.Int64 // results refuted by a check
	panics            atomic.Int64 // core panics recovered
	watchdogTimeouts  atomic.Int64 // jobs stuck past their cycle budget
	quarantines       atomic.Int64 // cores benched
	reinstated        atomic.Int64 // cores un-benched after a clean probe
	recomputes        atomic.Int64 // corrupted jobs redone (requeue or inline)

	latency   obs.Histogram // submit→finish, completed jobs (ns)
	failedLat obs.Histogram // submit→finish, failed + canceled jobs (ns)
	queueWait obs.Histogram // submit→dequeue, every dequeued job (ns)
	execTime  obs.Histogram // dequeue→finish, completed jobs (ns)
}

// setMax raises g to v if v exceeds the current value — the lock-free
// high-watermark update behind queueHighWater.
func setMax(g *atomic.Int64, v int64) {
	for {
		old := g.Load()
		if v <= old || g.CompareAndSwap(old, v) {
			return
		}
	}
}

// Stats is a consistent-enough snapshot of the engine's counters.
// Completed + Failed + Canceled = jobs finished; Submitted − finished −
// QueueDepth = jobs currently executing on a core.
type Stats struct {
	Workers        int
	Submitted      int64
	Completed      int64
	Failed         int64
	Canceled       int64
	QueueDepth     int64
	QueueHighWater int64 // deepest the submission queue has been
	Sheds          int64 // queued jobs evicted by shed-lowest-class-first

	// LaneDepths is the per-class queue split at snapshot time, indexed
	// by qos.Class (interactive, batch, best-effort).
	LaneDepths [qos.NumClasses]int

	Muls         int64 // Montgomery products across all cores
	ModelCycles  int64 // cycles by the paper's §4.5 accounting
	SimCycles    int64 // cycles measured on simulated circuits
	CtxHits      int64 // modulus-context LRU hits
	CtxMisses    int64 // modulus-context LRU misses (precomputations run)
	CtxEvictions int64 // modulus contexts dropped at LRU capacity

	// KitJobs counts completed jobs by the concrete kit that computed
	// them (kits.Model, .Sim, .CIOS, .Big). Under kits.Auto the spread
	// across entries shows the selector's per-job choices.
	KitJobs map[kits.Kit]int64

	// KitLatency holds per-kit submit→finish latency distributions for
	// every kit that completed at least one job.
	KitLatency map[kits.Kit]obs.HistogramSnapshot

	// Integrity subsystem (all zero unless WithIntegrityCheck /
	// WithWatchdog is in effect or a core panicked).
	IntegrityFailures int64 // results refuted by a residue/re-verification check
	Panics            int64 // core panics recovered into job failures
	WatchdogTimeouts  int64 // jobs declared stuck past their cycle budget
	Quarantines       int64 // cores benched by the integrity subsystem
	Reinstatements    int64 // benched cores returned after a clean probe
	Recomputes        int64 // corrupted jobs redone (requeue or inline oracle)
	HealthyWorkers    int   // workers currently serving (not quarantined)

	// Latency distributions, all in nanoseconds. Latency covers
	// completed jobs submit→finish; FailedLatency covers failed and
	// canceled jobs (they used to vanish from latency accounting
	// entirely); QueueWait and ExecTime split Latency into scheduling
	// delay vs. compute.
	Latency       obs.HistogramSnapshot
	FailedLatency obs.HistogramSnapshot
	QueueWait     obs.HistogramSnapshot
	ExecTime      obs.HistogramSnapshot

	TotalWall time.Duration // summed latency of completed jobs
}

// Stats snapshots the counters.
func (e *Engine) Stats() Stats {
	hits, misses, evictions := e.cache.counts()
	lat := e.ctr.latency.Snapshot()
	kitJobs := make(map[kits.Kit]int64, kits.NumKits)
	kitLat := make(map[kits.Kit]obs.HistogramSnapshot, kits.NumKits)
	for i := 0; i < kits.NumKits; i++ {
		if v := e.ctr.kitJobs[i].Load(); v > 0 {
			kitJobs[kits.Kit(i)] = v
			kitLat[kits.Kit(i)] = e.ctr.kitLatency[i].Snapshot()
		}
	}
	return Stats{
		Workers:        e.cfg.workers,
		Submitted:      e.ctr.submitted.Load(),
		Completed:      e.ctr.completed.Load(),
		Failed:         e.ctr.failed.Load(),
		Canceled:       e.ctr.canceled.Load(),
		QueueDepth:     e.ctr.queueDepth.Load(),
		QueueHighWater: e.ctr.queueHighWater.Load(),
		Sheds:          e.ctr.sheds.Load(),
		LaneDepths:     e.laneDepths(),
		Muls:           e.ctr.muls.Load(),
		ModelCycles:    e.ctr.modelCycles.Load(),
		SimCycles:      e.ctr.simCycles.Load(),
		CtxHits:        int64(hits),
		CtxMisses:      int64(misses),
		CtxEvictions:   int64(evictions),
		KitJobs:        kitJobs,
		KitLatency:     kitLat,

		IntegrityFailures: e.ctr.integrityFailures.Load(),
		Panics:            e.ctr.panics.Load(),
		WatchdogTimeouts:  e.ctr.watchdogTimeouts.Load(),
		Quarantines:       e.ctr.quarantines.Load(),
		Reinstatements:    e.ctr.reinstated.Load(),
		Recomputes:        e.ctr.recomputes.Load(),
		HealthyWorkers:    int(e.healthy.Load()),
		Latency:           lat,
		FailedLatency:     e.ctr.failedLat.Snapshot(),
		QueueWait:         e.ctr.queueWait.Snapshot(),
		ExecTime:          e.ctr.execTime.Snapshot(),
		TotalWall:         time.Duration(lat.Sum),
	}
}

// laneDepths snapshots the per-class queue split.
func (e *Engine) laneDepths() (d [qos.NumClasses]int) {
	for c := qos.Class(0); c < qos.NumClasses; c++ {
		d[c] = e.sched.laneDepth(c)
	}
	return d
}

// MeanLatency returns the average submit→finish latency of completed
// jobs, 0 if none completed.
func (s Stats) MeanLatency() time.Duration {
	if s.Completed == 0 {
		return 0
	}
	return s.TotalWall / time.Duration(s.Completed)
}

// String renders the snapshot as one line, loadgen/debug friendly.
// Integrity counters appear only when something happened — the common
// clean-path line stays as short as before.
func (s Stats) String() string {
	line := fmt.Sprintf(
		"workers=%d submitted=%d completed=%d failed=%d canceled=%d queue=%d hw=%d "+
			"muls=%d ctx=%d/%d evict=%d mean=%s p50=%s p99=%s max=%s qwait_p99=%s",
		s.Workers, s.Submitted, s.Completed, s.Failed, s.Canceled, s.QueueDepth,
		s.QueueHighWater, s.Muls, s.CtxHits, s.CtxHits+s.CtxMisses, s.CtxEvictions,
		s.MeanLatency(), time.Duration(s.Latency.P50), time.Duration(s.Latency.P99),
		time.Duration(s.Latency.Max), time.Duration(s.QueueWait.P99))
	if s.Sheds > 0 {
		line += fmt.Sprintf(" sheds=%d lanes=%d/%d/%d",
			s.Sheds, s.LaneDepths[0], s.LaneDepths[1], s.LaneDepths[2])
	}
	if s.IntegrityFailures+s.Panics+s.WatchdogTimeouts+s.Quarantines > 0 {
		line += fmt.Sprintf(" integ=%d panics=%d watchdog=%d recomputed=%d quar=%d/%d healthy=%d/%d",
			s.IntegrityFailures, s.Panics, s.WatchdogTimeouts, s.Recomputes,
			s.Quarantines, s.Reinstatements, s.HealthyWorkers, s.Workers)
	}
	// Per-kit spread, only when some kit other than the default ran
	// jobs — the all-Model common case stays as short as before.
	nonModel := false
	for k, v := range s.KitJobs {
		if k != kits.Model && v > 0 {
			nonModel = true
			break
		}
	}
	if nonModel {
		for i := 0; i < kits.NumKits; i++ {
			if v := s.KitJobs[kits.Kit(i)]; v > 0 {
				line += fmt.Sprintf(" kit_%s=%d", kits.Kit(i), v)
			}
		}
	}
	return line
}
