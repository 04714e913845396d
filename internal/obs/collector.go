package obs

import (
	"sync"
	"time"
)

// Collector turns engine observer callbacks into registry metrics and
// tracer spans. It satisfies internal/engine's Observer interface
// structurally (the methods use only basic types), so attaching it is
//
//	col := obs.NewCollector()
//	eng, _ := engine.New(engine.WithObserver(col))
//
// and the whole layer stays out of the engine's dependency graph.
// All methods are safe for concurrent use and cheap: a handful of
// atomic adds per job, plus one short-mutex ring write when tracing is
// enabled.
type Collector struct {
	reg    *Registry
	tracer *Tracer
	wide   *WideWriter

	submitted map[string]*Counter // by job kind
	finished  map[string]*Counter // by kind — labeled also by outcome below
	outcomes  map[string]map[string]*Counter
	muls      map[string]*Counter

	queueDepth     *Gauge
	queueHighWater *Gauge
	modelCycles    *Counter
	simCycles      *Counter

	latency   map[string]*Histogram // submit→finish, by kind
	queueWait *Histogram
	exec      *Histogram
	failedLat *Histogram

	// kitLat holds submit→finish latency histograms per concrete
	// compute kit, registered lazily on the first job a kit completes
	// (obs cannot enumerate the engine's kits without importing it).
	// The read-locked fast path costs one RWMutex.RLock per completed
	// job; registration happens once per kit name.
	kitMu  sync.RWMutex
	kitLat map[string]*Histogram

	cacheHits      *Counter
	cacheMisses    *Counter
	cacheEvictions *Counter

	integrityEvents    map[string]*Counter
	quarantinedWorkers *Gauge
}

// CollectorOption configures NewCollector.
type CollectorOption func(*collectorConfig)

type collectorConfig struct {
	registry *Registry
	traceCap int
	tracing  bool
	wide     *WideWriter
}

// WithRegistry collects into an existing registry (default: a fresh
// one), letting several engines share one /metrics page.
func WithRegistry(r *Registry) CollectorOption {
	return func(c *collectorConfig) { c.registry = r }
}

// WithTracing enables the span ring buffer, keeping the most recent
// capacity spans (≤ 0 selects DefaultTraceCapacity).
func WithTracing(capacity int) CollectorOption {
	return func(c *collectorConfig) { c.tracing, c.traceCap = true, capacity }
}

// WithWideEvents emits one wide JSON log line per sampled job the
// engine finishes (layer "engine"). A nil writer leaves it off.
func WithWideEvents(w *WideWriter) CollectorOption {
	return func(c *collectorConfig) { c.wide = w }
}

// jobKinds are the engine's job kinds; anything else lands on "other".
var jobKinds = []string{"modexp", "mont", "other"}

// outcomes are the engine's job terminal states, plus "requeued" —
// the non-terminal state of a job sent back to the queue so a healthy
// core can recompute a result that failed its integrity check.
var outcomes = []string{"ok", "failed", "canceled", "requeued"}

// integrityEvents are the engine's integrity lifecycle events (see
// engine.IntegrityObserver); anything new lands on "other" so an
// engine upgrade can't panic an old collector.
var integrityEvents = []string{
	"check_failed", "quarantine", "probe_failed", "reinstate",
	"panic", "watchdog", "recompute", "other",
}

// NewCollector builds a collector with every metric pre-registered, so
// the hot path never touches the registry lock.
func NewCollector(opts ...CollectorOption) *Collector {
	cfg := collectorConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	reg := cfg.registry
	if reg == nil {
		reg = NewRegistry()
	}
	c := &Collector{
		reg:       reg,
		wide:      cfg.wide,
		submitted: map[string]*Counter{},
		finished:  map[string]*Counter{},
		outcomes:  map[string]map[string]*Counter{},
		muls:      map[string]*Counter{},
		latency:   map[string]*Histogram{},
		kitLat:    map[string]*Histogram{},
	}
	if cfg.tracing {
		c.tracer = NewTracer(cfg.traceCap)
	}
	for _, k := range jobKinds {
		c.submitted[k] = reg.CounterLabeled("montsys_jobs_submitted_total",
			"Jobs accepted into the engine queue.", Label("kind", k))
		c.finished[k] = reg.CounterLabeled("montsys_jobs_finished_total",
			"Jobs that reached a terminal state.", Label("kind", k))
		c.muls[k] = reg.CounterLabeled("montsys_mont_muls_total",
			"Montgomery products executed across all cores.", Label("kind", k))
		c.latency[k] = reg.HistogramLabeled("montsys_job_latency_seconds",
			"Submit-to-finish latency of completed jobs.", Label("kind", k))
		c.outcomes[k] = map[string]*Counter{}
		for _, o := range outcomes {
			c.outcomes[k][o] = reg.CounterLabeled("montsys_job_outcomes_total",
				"Job terminal states by kind and outcome.",
				Label("kind", k), Label("outcome", o))
		}
	}
	c.queueDepth = reg.Gauge("montsys_queue_depth",
		"Jobs currently waiting in the submission queue.")
	c.queueHighWater = reg.Gauge("montsys_queue_high_watermark",
		"Deepest the submission queue has been.")
	c.modelCycles = reg.Counter("montsys_model_cycles_total",
		"Cycles by the paper's Eq.-based accounting (every kit's reports).")
	c.simCycles = reg.Counter("montsys_simulated_cycles_total",
		"Clock cycles measured on simulated MMMC circuits (Sim kit).")
	c.queueWait = reg.Histogram("montsys_job_queue_wait_seconds",
		"Enqueue-to-dequeue wait of every job a core picked up.")
	c.exec = reg.Histogram("montsys_job_exec_seconds",
		"Dequeue-to-finish execution time of completed jobs.")
	c.failedLat = reg.Histogram("montsys_job_failed_latency_seconds",
		"Submit-to-finish latency of failed and canceled jobs.")
	c.cacheHits = reg.Counter("montsys_ctx_cache_hits_total",
		"Modulus-context LRU hits.")
	c.cacheMisses = reg.Counter("montsys_ctx_cache_misses_total",
		"Modulus-context LRU misses (precomputations run).")
	c.cacheEvictions = reg.Counter("montsys_ctx_cache_evictions_total",
		"Modulus contexts evicted from the LRU.")
	c.integrityEvents = map[string]*Counter{}
	for _, ev := range integrityEvents {
		c.integrityEvents[ev] = reg.CounterLabeled("montsys_integrity_events_total",
			"Engine integrity lifecycle events (failed checks, quarantines, probes, recomputes).",
			Label("event", ev))
	}
	c.quarantinedWorkers = reg.Gauge("montsys_quarantined_workers",
		"Worker cores currently benched by the integrity subsystem.")
	return c
}

// Registry exposes the collector's metrics registry (for the HTTP
// handler or custom exporters).
func (c *Collector) Registry() *Registry { return c.reg }

// Tracer returns the span ring buffer, nil unless WithTracing was
// given.
func (c *Collector) Tracer() *Tracer { return c.tracer }

// SetEngineInfo publishes a one-shot info gauge describing an attached
// engine (workers, compute kit, array variant) the way Prometheus
// convention spells build_info. The kit keeps its original label name,
// "mode", so existing dashboards still match.
func (c *Collector) SetEngineInfo(workers int, kit, variant string) {
	c.reg.GaugeLabeled("montsys_engine_info",
		"Constant 1, labeled with the attached engine's configuration.",
		Label("mode", kit), Label("variant", variant)).Set(1)
	c.reg.Gauge("montsys_engine_workers",
		"Worker cores of the attached engine.").Set(int64(workers))
}

func (c *Collector) kind(k string) string {
	if _, ok := c.submitted[k]; !ok {
		return "other"
	}
	return k
}

// JobSubmitted implements engine.Observer: a job entered the queue.
func (c *Collector) JobSubmitted(kind string) {
	kind = c.kind(kind)
	c.submitted[kind].Inc()
	c.queueDepth.Add(1)
	c.queueHighWater.SetMax(c.queueDepth.Value())
}

// JobStarted implements engine.Observer: a core dequeued a job after
// waiting queueWait.
func (c *Collector) JobStarted(kind string, worker int, queueWait time.Duration) {
	c.queueDepth.Add(-1)
	c.queueWait.ObserveDuration(queueWait)
}

// JobFinished implements engine.Observer: a job reached outcome
// ("ok" | "failed" | "canceled") on the given worker core. start is the
// enqueue instant; queueWait and exec split its total latency; muls,
// modelCycles and simCycles are the job's own work accounting (zero
// for failures). It is the span-less compatibility path: the full
// bookkeeping lives in JobSpan, which engines that know about spans
// (kit identity, trace context, integrity timing) call directly.
func (c *Collector) JobFinished(kind string, worker int, outcome string,
	start time.Time, queueWait, exec time.Duration, muls, modelCycles, simCycles int64) {
	c.JobSpan(Span{
		Name: kind, Worker: worker, Outcome: outcome,
		Start: start, QueueWait: queueWait, Exec: exec,
		Muls: muls, ModelCycles: modelCycles, SimCycles: simCycles,
	})
}

// JobSpan implements engine.SpanObserver: the span-shaped superset of
// JobFinished. One call does all terminal-state bookkeeping — outcome
// counters, latency/exec histograms (aggregate and per-kit), work
// accounting, the tracer ring, and (for sampled spans with wide
// events on) one wide engine log line.
func (c *Collector) JobSpan(s Span) {
	kind := c.kind(s.Name)
	c.finished[kind].Inc()
	if m, ok := c.outcomes[kind][s.Outcome]; ok {
		m.Inc()
	}
	total := s.QueueWait + s.Exec
	switch s.Outcome {
	case "ok":
		c.latency[kind].ObserveDuration(total)
		c.exec.ObserveDuration(s.Exec)
		c.muls[kind].Add(s.Muls)
		c.modelCycles.Add(s.ModelCycles)
		c.simCycles.Add(s.SimCycles)
		if s.Kit != "" {
			c.kitLatency(s.Kit).ObserveDuration(total)
		}
	case "requeued":
		// Not terminal: the job's next run does the latency accounting.
	default:
		c.failedLat.ObserveDuration(total)
	}
	if c.tracer != nil {
		c.tracer.Record(s)
	}
	if c.wide != nil && !s.TraceID.IsZero() {
		c.wide.Emit(&WideEvent{
			Layer: "engine", Op: kind,
			TraceID: s.TraceID, SpanID: s.SpanID, Parent: s.Parent,
			Outcome: s.Outcome, Kit: s.Kit,
			Dur: total, Queue: s.QueueWait,
		})
	}
}

// kitLatency returns the per-kit latency histogram, registering it on
// first use.
func (c *Collector) kitLatency(kit string) *Histogram {
	c.kitMu.RLock()
	h := c.kitLat[kit]
	c.kitMu.RUnlock()
	if h != nil {
		return h
	}
	c.kitMu.Lock()
	defer c.kitMu.Unlock()
	if h := c.kitLat[kit]; h != nil {
		return h
	}
	h = c.reg.HistogramLabeled("montsys_job_kit_latency_seconds",
		"Submit-to-finish latency of completed jobs by concrete compute kit.",
		Label("kit", kit))
	c.kitLat[kit] = h
	return h
}

// CacheHit implements engine.Observer.
func (c *Collector) CacheHit() { c.cacheHits.Inc() }

// CacheMiss implements engine.Observer.
func (c *Collector) CacheMiss() { c.cacheMisses.Inc() }

// CacheEviction implements engine.Observer.
func (c *Collector) CacheEviction() { c.cacheEvictions.Inc() }

// IntegrityEvent implements engine.IntegrityObserver: one integrity
// lifecycle event on the given worker core. Quarantine and
// reinstatement additionally move the quarantined-workers gauge so a
// dashboard shows benched cores directly.
func (c *Collector) IntegrityEvent(event string, worker int) {
	m, ok := c.integrityEvents[event]
	if !ok {
		m = c.integrityEvents["other"]
	}
	m.Inc()
	switch event {
	case "quarantine":
		c.quarantinedWorkers.Add(1)
	case "reinstate":
		c.quarantinedWorkers.Add(-1)
	}
	// Quarantines and reinstatements are rare, load-bearing moments —
	// mark them on the worker's trace track so a Perfetto view shows
	// when the core was benched amid its job slices.
	if c.tracer != nil && (event == "quarantine" || event == "reinstate") {
		c.tracer.RecordInstant("integrity/"+event, worker, time.Now())
	}
}
