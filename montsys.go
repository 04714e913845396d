// Package montsys is the public API of this repository: a complete,
// simulation-level reproduction of "Hardware Implementation of a
// Montgomery Modular Multiplier in a Systolic Array" (Örs, Batina,
// Preneel, Vandewalle — IPDPS/IPPS 2003).
//
// The heart of the system is a radix-2 systolic array computing
// Montgomery products x·y·R⁻¹ mod 2N with R = 2^(l+2) and no final
// subtraction (Walter's bound), wrapped in the paper's MMM circuit
// (IDLE/MUL1/MUL2/OUT controller) and modular exponentiator. It exists
// at four fidelity levels — reference arithmetic, cycle-accurate
// behavioural simulation, gate-level netlist simulation, and a
// calibrated Virtex-E technology model — all equivalence-tested against
// one another.
//
// Every construction point accepts a compute kit — the execution
// backend a multiplier, exponentiator or engine core runs on:
//
//	KitModel  radix-2 reference arithmetic + paper cycle formulas (default)
//	KitSim    cycle-accurate simulated systolic circuit
//	KitCIOS   production radix-2^64 CIOS word-serial fast path
//	KitBig    math/big oracle
//	KitAuto   pick the fastest measured kit per modulus size and op
//
// Quick start:
//
//	m, err := montsys.NewMultiplier(n)                    // reference speed
//	m, err := montsys.NewMultiplier(n, montsys.WithKit(montsys.KitSim)) // cycle-accurate
//	p, err := m.Mont(x, y)                                // x·y·R⁻¹ mod 2N
//
//	ex, err := montsys.NewExponentiator(n)                // reference arithmetic
//	ex, err := montsys.NewExponentiator(n, montsys.WithKit(montsys.KitCIOS)) // fast path
//	c, report, err := ex.ModExp(msg, e)                   // RSA-style exponentiation
//
//	eng, err := montsys.NewEngine(montsys.WithEngineWorkers(8),
//	    montsys.WithEngineKitAuto())                      // auto-tuned kit per job
//	results, err := eng.ModExpBatch(ctx, jobs)            // fan across 8 cores
//
//	srv, err := montsys.NewServer(eng)                    // TCP front door (montsysd)
//	cl := montsys.Dial("host:7077")                       // pooled, pipelined, retrying
//	v, err := cl.ModExp(ctx, n, base, exp)                // same answers over the wire
//
//	hw, err := montsys.Hardware(1024)                     // slices, clock, T_MMM
//
// The execution mode API that predates the kits — a Mode type with
// Model/Simulate, the options that set it or a simulation flag, the
// variant options named before the kit API, and the engine's mode
// accessor — is removed; the repository's CHANGES.md lists every
// removed name with its replacement. Each kit is one implementation of
// a small per-modulus compute core (Mont, ModExp, simulated-cycle
// count); WithKit and WithEngineKit only choose which one, and
// WithArrayVariant/WithEngineArrayVariant pick the Sim kit's array
// flavour.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package montsys

import (
	"context"
	"io"
	"math/big"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cryptosvc"
	"repro/internal/engine"
	"repro/internal/errs"
	"repro/internal/expo"
	"repro/internal/faults"
	"repro/internal/kits"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/rsa"
	"repro/internal/server"
	"repro/internal/systolic"
)

// Typed sentinel errors, shared by every layer (reference arithmetic,
// multiplier, exponentiator, engine). Match with errors.Is — the
// returned errors wrap these with context.
var (
	ErrEvenModulus     = errs.ErrEvenModulus
	ErrModulusTooSmall = errs.ErrModulusTooSmall
	ErrOperandRange    = errs.ErrOperandRange
	ErrEngineClosed    = errs.ErrEngineClosed

	// Serving-layer sentinels: admission-control fast-fail, graceful
	// drain in progress, malformed wire frame, unreachable backend. The
	// wire protocol maps each to a stable response code, so errors.Is
	// keeps working across the network hop — and across the cluster
	// tier's extra hop.
	ErrOverloaded  = errs.ErrOverloaded
	ErrDraining    = errs.ErrDraining
	ErrProtocol    = errs.ErrProtocol
	ErrBackendDown = errs.ErrBackendDown

	// ErrRateLimited marks a per-tenant quota rejection from a server's
	// QoS plane — the tenant's own token bucket is empty, distinct from
	// ErrOverloaded (the server as a whole is saturated). The concrete
	// error is a *RateLimited carrying the retry-after hint; recover it
	// with errors.As, including across the wire.
	ErrRateLimited = errs.ErrRateLimited

	// ErrIntegrity marks a result that failed the engine's end-to-end
	// integrity checks (residue identity, big.Int re-verification, core
	// panic, watchdog timeout). When recompute is enabled callers never
	// see it — corrupted jobs are silently redone on a healthy core —
	// and when it does surface (recompute disabled, or recompute itself
	// failed) the value must not be trusted; the cluster tier fails such
	// answers over to another backend for free.
	ErrIntegrity = errs.ErrIntegrity

	// ErrBadKey marks malformed key material handed to the signing
	// service (inconsistent CRT fields, off-curve public point, unknown
	// curve, scalar out of range). It crosses the wire as its own
	// response code, so errors.Is keeps working remotely.
	ErrBadKey = errs.ErrBadKey
)

// Multiplier is a Montgomery modular multiplier for one odd modulus,
// optionally backed by the cycle-accurate simulated circuit.
type Multiplier = core.Multiplier

// Option configures NewMultiplier.
type Option = core.Option

// HardwareReport summarizes the synthesized circuit for one bit length
// (gate census, LUT/slice mapping, clock period, T_MMM).
type HardwareReport = core.HardwareReport

// Exponentiator performs modular exponentiation over the multiplier.
type Exponentiator = expo.Exponentiator

// Report describes an exponentiation's square/multiply decomposition and
// cycle cost under the paper's accounting.
type Report = expo.Report

// Variant selects the systolic array flavour.
type Variant = systolic.Variant

// Array variants: Faithful is exactly the paper's Fig. 1/2 (subject to
// the documented operand condition y + N ≤ 2^(l+1)); Guarded adds one
// cap cell and one flip-flop and is correct for all operands below 2N.
const (
	Faithful = systolic.Faithful
	Guarded  = systolic.Guarded
)

// Kit names a compute backend: the execution path a Multiplier,
// Exponentiator, or engine worker core runs Montgomery operations on.
type Kit = kits.Kit

// The compute kits. KitAuto is a selection policy, not a backend: the
// concrete kit is picked per modulus size (and, in the engine, per
// operation shape) from a bounded startup microbenchmark cached for
// the process lifetime.
const (
	KitModel = kits.Model // radix-2 reference arithmetic, paper cycle formulas (default)
	KitSim   = kits.Sim   // cycle-accurate simulated systolic circuit
	KitCIOS  = kits.CIOS  // radix-2^64 CIOS word-serial fast path
	KitBig   = kits.Big   // math/big oracle
	KitAuto  = kits.Auto  // auto-tuned per-job selection
)

// ParseKit maps a flag value (model|sim|cios|big|auto, case-insensitive)
// to its Kit.
func ParseKit(s string) (Kit, error) { return kits.Parse(s) }

// NewMultiplier prepares a multiplier for the odd modulus n ≥ 3.
func NewMultiplier(n *big.Int, opts ...Option) (*Multiplier, error) {
	return core.NewMultiplier(n, opts...)
}

// WithKit selects the compute kit for a Multiplier or Exponentiator.
// Kits never change answers — every kit computes the same residues,
// equivalence-tested against one another — only the speed/fidelity
// trade: KitModel and KitSim are the paper's reference and simulation,
// KitCIOS is the production fast path, KitBig the math/big oracle, and
// KitAuto picks per modulus size from the process benchmark table.
func WithKit(k Kit) Option { return core.WithKit(k) }

// WithKitAuto is WithKit(KitAuto).
func WithKitAuto() Option { return core.WithKitAuto() }

// WithArrayVariant selects the systolic array variant the KitSim
// circuit simulates (Guarded by default). No effect on other kits.
func WithArrayVariant(v Variant) Option { return core.WithArrayVariant(v) }

// NewExponentiator returns the paper's modular exponentiator for the
// odd modulus n, configured with the same functional options as
// NewMultiplier:
//
//	montsys.NewExponentiator(n)                                  // reference arithmetic
//	montsys.NewExponentiator(n, montsys.WithKit(montsys.KitSim)) // cycle-accurate
//	montsys.NewExponentiator(n, montsys.WithKit(montsys.KitCIOS)) // fast path
//	montsys.NewExponentiator(n, montsys.WithKit(montsys.KitSim),
//	    montsys.WithArrayVariant(montsys.Faithful))              // explicit variant
func NewExponentiator(n *big.Int, opts ...Option) (*Exponentiator, error) {
	return core.NewExponentiator(n, opts...)
}

// Engine is the concurrent multi-core modexp/Mont engine: a pool of
// worker cores (each owning an exclusive multiplier/exponentiator —
// simulated cycle-accurate cores included), a bounded submission queue
// with context cancellation and per-job deadlines, an LRU cache of
// per-modulus Montgomery contexts, order-preserving batch APIs
// (ModExpBatch, MontBatch) and an atomic Stats block. See
// internal/engine.
type Engine = engine.Engine

// EngineOption configures NewEngine.
type EngineOption = engine.Option

// EngineStats is the engine's counters snapshot.
type EngineStats = engine.Stats

// Engine job/result types: results[i] always answers jobs[i].
type (
	ModExpJob    = engine.ModExpJob
	ModExpResult = engine.ModExpResult
	MontJob      = engine.MontJob
	MontResult   = engine.MontResult
)

// NewEngine builds and starts a multi-core engine.
func NewEngine(opts ...EngineOption) (*Engine, error) { return engine.New(opts...) }

// WithEngineWorkers sets the number of worker cores (default GOMAXPROCS).
func WithEngineWorkers(k int) EngineOption { return engine.WithWorkers(k) }

// WithEngineQueueDepth bounds the submission queue (default 4× workers).
func WithEngineQueueDepth(d int) EngineOption { return engine.WithQueueDepth(d) }

// WithEngineKit selects the compute kit worker cores run on (default
// KitModel). With KitAuto the engine resolves the kit per job — by
// modulus bit-length bucket and operation shape — from a bounded
// startup microbenchmark cached for the process; per-kit job counts
// appear in EngineStats.KitJobs.
func WithEngineKit(k Kit) EngineOption { return engine.WithKit(k) }

// WithEngineKitAuto is WithEngineKit(KitAuto).
func WithEngineKitAuto() EngineOption { return engine.WithKitAuto() }

// WithEngineArrayVariant selects the array variant KitSim cores
// simulate.
func WithEngineArrayVariant(v Variant) EngineOption { return engine.WithArrayVariant(v) }

// WithEngineCtxCacheSize bounds the per-modulus context LRU (default 128).
func WithEngineCtxCacheSize(n int) EngineOption { return engine.WithCtxCacheSize(n) }

// Observability. The engine exposes a pluggable Observer hook
// (submission, dequeue, completion, context-cache traffic); Collector
// is the batteries-included implementation feeding a metrics registry
// (Prometheus-exportable counters, gauges and log-bucketed latency
// histograms with p50/p90/p99/max) and an optional bounded ring-buffer
// span tracer exporting Chrome trace-event JSON. NewObsHandler serves
// the lot over HTTP together with expvar and pprof:
//
//	col := montsys.NewCollector(montsys.WithTracing(0))
//	eng, _ := montsys.NewEngine(montsys.WithEngineObserver(col))
//	go http.ListenAndServe(":9090", montsys.NewObsHandler(col))
//	// scrape :9090/metrics, profile :9090/debug/pprof/profile,
//	// open :9090/trace in Perfetto.

// EngineObserver receives engine lifecycle callbacks; see
// internal/engine.Observer for the contract.
type EngineObserver = engine.Observer

// WithEngineObserver attaches an observer to an engine. Observation is
// opt-in: without one, every hook site is a single nil check.
func WithEngineObserver(o EngineObserver) EngineOption { return engine.WithObserver(o) }

// Fault tolerance & integrity. The engine can verify its own results
// (every Montgomery product against the residue identity
// T·R ≡ x·y (mod N), a sampled fraction of exponentiations against a
// full big.Int re-computation), quarantine a core whose results fail —
// with background known-answer re-probes and jittered reinstatement,
// mirroring the cluster tier's backend lifecycle — and transparently
// recompute corrupted jobs on a healthy core. A deterministic fault
// injector simulates the hardware failure modes (bit-flip and
// stuck-at upsets in the paper's cell array) for tests and chaos runs:
//
//	inj := montsys.NewFaultInjector(montsys.WithFaultRate(0.01),
//	    montsys.WithFaultSeed(42), montsys.WithFaultCores(0))
//	eng, _ := montsys.NewEngine(
//	    montsys.WithEngineWorkers(4),
//	    montsys.WithEngineFaultInjector(inj),
//	    montsys.WithEngineIntegrityCheck(1)) // zero wrong answers leave eng
//
// See README "Fault tolerance & integrity" and DESIGN §2e.

// FaultInjector deterministically corrupts core results (bit-flip or
// stuck-at; per-core, rate-limited, one-shot or persistent) so the
// integrity subsystem can be exercised end to end.
type FaultInjector = faults.Injector

// FaultOption configures NewFaultInjector.
type FaultOption = faults.Option

// NewFaultInjector builds a fault injector; with no options it flips a
// random bit of every result on every core.
func NewFaultInjector(opts ...FaultOption) *FaultInjector { return faults.New(opts...) }

// WithFaultSeed fixes the injector's deterministic seed (default 1).
func WithFaultSeed(s int64) FaultOption { return faults.WithSeed(s) }

// WithFaultRate sets the per-operation fault probability (default 1).
func WithFaultRate(r float64) FaultOption { return faults.WithRate(r) }

// WithFaultBitFlip makes the injector flip the given bit (< 0 =
// random per operation).
func WithFaultBitFlip(bit int) FaultOption { return faults.WithBitFlip(bit) }

// WithFaultStuckAt forces the given result bit to val&1 (< 0 = random
// position), modelling a permanent cell defect.
func WithFaultStuckAt(bit int, val uint) FaultOption { return faults.WithStuckAt(bit, val) }

// WithFaultCores restricts faults to the listed worker ids.
func WithFaultCores(ids ...int) FaultOption { return faults.WithCores(ids...) }

// WithFaultAfter arms faults only after n clean operations per core.
func WithFaultAfter(n int64) FaultOption { return faults.WithAfter(n) }

// WithFaultOneShot limits each core to a single manifested fault.
func WithFaultOneShot() FaultOption { return faults.WithOneShot() }

// WithEngineIntegrityCheck verifies every result before it leaves the
// engine: each Montgomery product against the residue identity, and
// sample ∈ [0, 1] of exponentiations against a full big.Int
// re-computation (1 re-checks every job). Failing results are
// recomputed (see WithEngineIntegrityRecompute) and the offending
// core is quarantined.
func WithEngineIntegrityCheck(sample float64) EngineOption {
	return engine.WithIntegrityCheck(sample)
}

// WithEngineIntegrityRecompute controls recovery for results that fail
// their check (default true: recompute on a healthy core, callers see
// only correct answers). Off, such jobs fail with ErrIntegrity —
// what a cluster front end wants, so corruption becomes a failover.
func WithEngineIntegrityRecompute(on bool) EngineOption {
	return engine.WithIntegrityRecompute(on)
}

// WithEngineFaultInjector wires a fault injector between worker cores
// and their results (tests, loadgen, chaos runs).
func WithEngineFaultInjector(in *FaultInjector) EngineOption {
	return engine.WithFaultInjector(in)
}

// WithEngineQuarantineBackoff sets the quarantined-core re-probe
// schedule: first known-answer probe after base, doubling to max,
// ±50% jitter (defaults 100ms, 10s).
func WithEngineQuarantineBackoff(base, max time.Duration) EngineOption {
	return engine.WithQuarantineBackoff(base, max)
}

// WithEngineWatchdog fails jobs stuck past k × their hardware cycle
// bound (3l+4 per Montgomery product, 6l²+14l+12 per exponentiation,
// at 1µs per cycle) and quarantines the core (k ≤ 0 disables).
func WithEngineWatchdog(k float64) EngineOption { return engine.WithWatchdog(k) }

// Collector adapts observer callbacks into metrics and trace spans.
type Collector = obs.Collector

// CollectorOption configures NewCollector.
type CollectorOption = obs.CollectorOption

// MetricsRegistry holds named metrics and renders Prometheus text.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry — the shared
// page a collector, server and cluster can all register into.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// LatencySnapshot is a point-in-time histogram copy with percentiles.
type LatencySnapshot = obs.HistogramSnapshot

// TraceSpan is one recorded job lifecycle in the span ring buffer.
type TraceSpan = obs.Span

// NewCollector builds an engine observer with every metric
// pre-registered.
func NewCollector(opts ...CollectorOption) *Collector { return obs.NewCollector(opts...) }

// WithTracing enables the collector's span ring buffer, keeping the
// most recent capacity spans (≤ 0 selects the default, 4096).
func WithTracing(capacity int) CollectorOption { return obs.WithTracing(capacity) }

// WithMetricsRegistry collects into an existing registry so several
// engines share one /metrics page.
func WithMetricsRegistry(r *MetricsRegistry) CollectorOption { return obs.WithRegistry(r) }

// NewObsHandler serves a collector over HTTP: Prometheus text-format
// /metrics, /debug/vars (expvar), /debug/pprof/*, and a /trace export
// that loads in Perfetto or chrome://tracing.
func NewObsHandler(c *Collector) http.Handler { return obs.NewHandler(c) }

// Serving. The engine's network front door is montsysd (cmd/montsysd):
// a TCP server speaking a compact length-prefixed binary protocol, with
// admission control (bounded in-flight, ErrOverloaded fast-fail),
// per-request deadline propagation, idle timeouts and graceful drain on
// SIGTERM. Client is the matching dialer: pooled, pipelined
// connections with exponential-backoff retries on transient failures.
//
//	srv, _ := montsys.NewServer(eng, montsys.WithServerRegistry(col.Registry()))
//	go srv.Serve(ln)
//	cl := montsys.Dial(ln.Addr().String())
//	v, err := cl.ModExp(ctx, n, base, exp)       // same answers as eng.ModExp
//
// See internal/server for the frame layout and README "Serving".

// Server is the TCP serving layer over an Engine.
type Server = server.Server

// ServerOption configures NewServer.
type ServerOption = server.Option

// NewServer wraps an engine in a protocol server. The engine stays
// caller-owned: draining or closing the server never closes it.
func NewServer(eng *Engine, opts ...ServerOption) (*Server, error) {
	return server.NewServer(eng, opts...)
}

// WithServerMaxInflight bounds admitted-but-unanswered requests across
// all connections (default 4× engine workers); excess requests
// fast-fail with ErrOverloaded.
func WithServerMaxInflight(n int) ServerOption { return server.WithMaxInflight(n) }

// WithServerIdleTimeout closes connections idle for d (default 2m).
func WithServerIdleTimeout(d time.Duration) ServerOption { return server.WithIdleTimeout(d) }

// WithServerWriteTimeout bounds each response write (default 1m).
func WithServerWriteTimeout(d time.Duration) ServerOption { return server.WithWriteTimeout(d) }

// WithServerMaxFrame bounds request frames in bytes.
func WithServerMaxFrame(n int) ServerOption { return server.WithMaxFrame(n) }

// WithServerFrameTimeout bounds how long one request frame may take to
// arrive once its first byte shows up (default 10s; 0 disables). Idle
// connections between frames are governed by the idle timeout alone —
// this deadline is the slow-loris guard: a client dribbling a frame
// byte-by-byte is cut off, counted in
// montsys_server_slowloris_closed_total.
func WithServerFrameTimeout(d time.Duration) ServerOption { return server.WithFrameTimeout(d) }

// WithServerRegistry puts the server's metrics (server_connections,
// server_inflight, server_requests_total{op,code}, request-latency
// histogram) on an existing registry, typically a Collector's, so one
// /metrics page carries client→server→engine→core end to end.
func WithServerRegistry(r *MetricsRegistry) ServerOption { return server.WithRegistry(r) }

// Client talks to a montsysd server: pooled pipelined connections,
// context-aware dials and calls, retries with exponential backoff and
// jitter on transient failures (ErrOverloaded, ErrDraining, dropped
// connections — ambiguous drops are retried only for idempotent ops).
type Client = server.Client

// ClientOption configures Dial.
type ClientOption = server.ClientOption

// Dial prepares a client for addr; connections are established lazily,
// so Dial itself performs no I/O.
func Dial(addr string, opts ...ClientOption) *Client { return server.Dial(addr, opts...) }

// WithClientPoolSize bounds pooled connections (default 2).
func WithClientPoolSize(n int) ClientOption { return server.WithPoolSize(n) }

// WithClientDialTimeout bounds each dial (default 5s).
func WithClientDialTimeout(d time.Duration) ClientOption { return server.WithDialTimeout(d) }

// WithClientMaxRetries bounds retries after the first attempt
// (default 3; 0 disables).
func WithClientMaxRetries(n int) ClientOption { return server.WithMaxRetries(n) }

// WithClientBackoff sets the retry backoff envelope: base doubles per
// attempt up to max, jittered ±50% (defaults 10ms, 1s).
func WithClientBackoff(base, max time.Duration) ClientOption { return server.WithBackoff(base, max) }

// ServerHandler is what a wire server executes requests against. The
// engine is the canonical implementation (NewServer adapts it); a
// Cluster is another, which is how montsyslb serves the montsysd
// protocol in front of a backend fleet.
type ServerHandler = server.Handler

// NewHandlerServer wraps any ServerHandler in a protocol server — the
// proxy-side twin of NewServer.
func NewHandlerServer(h ServerHandler, opts ...ServerOption) (*Server, error) {
	return server.NewHandlerServer(h, opts...)
}

// Cluster tier. A Cluster routes requests over N montsysd backends and
// makes them behave like one larger, more reliable engine — the
// paper's replicated/pipelined MMM arrays (§5, Fig. 5) lifted to the
// fleet level. Backends are health-checked (Ping probes, ejection,
// jittered-backoff reinstatement, per-backend circuit breakers);
// repeat-modulus traffic is routed by rendezvous hashing to the
// backend whose per-modulus context cache is already warm; slow
// requests are hedged onto a second backend after a p99-derived delay;
// and draining or dead backends fail over with a global retry budget
// capping amplification.
//
//	cl, _ := montsys.NewCluster([]string{"a:7077", "b:7077"})
//	v, err := cl.ModExp(ctx, n, base, exp)   // routed, hedged, failed over
//
// A Cluster satisfies ServerHandler, so montsyslb is simply
// NewHandlerServer(cluster) — the same wire protocol at every tier.
type Cluster = cluster.Cluster

// ClusterOption configures NewCluster.
type ClusterOption = cluster.Option

// ClusterBackendStatus is one backend's routing state snapshot.
type ClusterBackendStatus = cluster.BackendStatus

// NewCluster builds a routing tier over the backend addresses and
// starts health-probing them.
func NewCluster(addrs []string, opts ...ClusterOption) (*Cluster, error) {
	return cluster.New(addrs, opts...)
}

// WithClusterRegistry collects cluster metrics (backend_up,
// picks_total{backend,reason}, hedges_total, breaker_state,
// affinity_hits_total, ...) into an existing registry.
func WithClusterRegistry(r *MetricsRegistry) ClusterOption { return cluster.WithRegistry(r) }

// WithClusterProbeInterval sets the health-probe cadence (default 1s).
func WithClusterProbeInterval(d time.Duration) ClusterOption { return cluster.WithProbeInterval(d) }

// WithClusterProbeTimeout bounds each Ping probe (default 1s).
func WithClusterProbeTimeout(d time.Duration) ClusterOption { return cluster.WithProbeTimeout(d) }

// WithClusterFailThreshold sets consecutive probe failures before a
// backend is ejected (default 3); a draining answer ejects immediately.
func WithClusterFailThreshold(n int) ClusterOption { return cluster.WithFailThreshold(n) }

// WithClusterReinstateBackoff sets the jittered probe backoff for
// ejected backends (defaults 500ms doubling to 30s).
func WithClusterReinstateBackoff(base, max time.Duration) ClusterOption {
	return cluster.WithReinstateBackoff(base, max)
}

// WithClusterBreaker tunes the per-backend circuit breaker (defaults:
// 5 consecutive transport failures open it, one trial after 2s).
func WithClusterBreaker(threshold int, cooldown time.Duration) ClusterOption {
	return cluster.WithBreaker(threshold, cooldown)
}

// WithClusterAffinity toggles modulus-affinity (rendezvous-hash)
// routing (default on). Off, every request is least-inflight routed.
func WithClusterAffinity(on bool) ClusterOption { return cluster.WithAffinity(on) }

// WithClusterHedging toggles tail-latency hedging (default on).
func WithClusterHedging(on bool) ClusterOption { return cluster.WithHedging(on) }

// WithClusterHedgeDelayBounds clamps the p99-derived hedge delay
// (defaults 1ms, 250ms).
func WithClusterHedgeDelayBounds(min, max time.Duration) ClusterOption {
	return cluster.WithHedgeDelayBounds(min, max)
}

// WithClusterRetryBudget sets the global retry budget: hedges and
// overload retries spend a token; tokens accrue at ratio per request up
// to burst (defaults 0.1, 16).
func WithClusterRetryBudget(ratio float64, burst int) ClusterOption {
	return cluster.WithRetryBudget(ratio, burst)
}

// WithClusterClientOptions passes options to every backend's wire
// client (which the cluster otherwise configures with zero internal
// retries — the router owns retry policy).
func WithClusterClientOptions(opts ...ClientOption) ClusterOption {
	return cluster.WithClientOptions(opts...)
}

// WithClusterIntegrityEjectThreshold ejects a backend after n
// consecutive ErrIntegrity answers from live traffic (default 3; 0
// disables). A corrupting backend passes transport health checks, so
// this is the lever that takes it out of rotation.
func WithClusterIntegrityEjectThreshold(n int) ClusterOption {
	return cluster.WithIntegrityEjectThreshold(n)
}

// WithClusterZone names the balancer's failure domain: least-inflight
// picks prefer a local-zone backend when it is no more loaded than the
// global least, and hedges never launch into a zone that is visibly
// absorbing failures.
func WithClusterZone(zone string) ClusterOption { return cluster.WithZone(zone) }

// WithClusterHandover tunes churn-tolerant rebalancing: after a
// join/leave, moduli whose rendezvous home moved stay dual-routed for
// window (old home answers, new home is warmed in the background by at
// most maxWarm duplicated calls). Defaults 30s and 256; a zero window
// makes membership changes instantaneous.
func WithClusterHandover(window time.Duration, maxWarm int) ClusterOption {
	return cluster.WithHandover(window, maxWarm)
}

// WithClusterMaxMembers bounds the member table runtime Joins can grow
// (default 64); Joins past the bound answer ErrOverloaded.
func WithClusterMaxMembers(n int) ClusterOption { return cluster.WithMaxMembers(n) }

// ClusterMember is one pool entry: "host:port" plus an optional zone
// label.
type ClusterMember = cluster.Member

// ParseClusterMembers parses the comma-separated "addr[=zone]" list the
// -backends flag takes.
func ParseClusterMembers(s string) ([]ClusterMember, error) { return cluster.ParseMemberList(s) }

// LoadClusterMemberFile reads a member file (one "addr[=zone]" per
// line, #-comments) — the -backends @file syntax montsyslb watches.
func LoadClusterMemberFile(path string) ([]ClusterMember, error) {
	return cluster.LoadMemberFile(path)
}

// NewMetricsHandler serves a bare metrics registry over HTTP in
// Prometheus text format — for processes like montsyslb that have a
// registry but no engine collector.
func NewMetricsHandler(r *MetricsRegistry) http.Handler { return obs.MetricsHandler(r) }

// Distributed tracing, wide events and SLOs. A sampled request carries
// a 16-byte trace id across every hop — client, balancer, backend
// server, engine worker, compute kit — via traced wire-op variants, so
// each process's /trace export holds its slice of the same tree and
// cmd/tracecat merges them into one Perfetto-loadable timeline.
// Sampling is head-based and deterministic in the trace id, so a fleet
// agrees on every verdict without coordination. Alongside the spans,
// each layer can emit one wide JSON log line per sampled request, and
// an SLOTracker turns the existing request counters and latency
// histograms into multi-window burn rates served at /statusz:
//
//	tracer := montsys.NewTracer(0)
//	tracer.SetProcess("montsysd")
//	wide := montsys.NewWideWriter(os.Stderr)
//	srv, _ := montsys.NewServer(eng, montsys.WithServerTracer(tracer),
//	    montsys.WithServerWideEvents(wide))
//	slo := montsys.NewSLOTracker(srv.Registry(), 0)
//	srv.RegisterSLOs(slo, 500*time.Millisecond, 0.999)
//	slo.Start()
//	cl := montsys.Dial(addr, montsys.WithClientTracing(tracer, 0.01))
//
// See README "Tracing & SLOs" and DESIGN §2g for the span ↔ paper
// pipeline-stage mapping.

// TraceContext is the per-request trace state (trace id, current span
// id, sampling verdict) that rides a context.Context across layers and
// the wire across processes.
type TraceContext = obs.TraceContext

// TraceID identifies one request end to end (16 opaque bytes; zero
// means untraced).
type TraceID = obs.TraceID

// Tracer is the bounded ring buffer spans record into; its contents
// export as Chrome trace-event JSON at /trace.
type Tracer = obs.Tracer

// NewTracer builds a span ring keeping the most recent capacity spans
// (≤ 0 selects the default, 4096). Call SetProcess so multi-process
// trace merges attribute spans to the right daemon.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewTraceContext mints a root trace context sampled at rate — what an
// edge process (loadgen, a caller above Client) attaches with
// ContextWithTrace when it wants to own root-span identity itself.
// Client mints roots automatically when given WithClientTracing with a
// positive rate.
func NewTraceContext(rate float64) TraceContext { return obs.NewTraceContext(rate) }

// ContextWithTrace attaches a trace context to ctx; every montsys layer
// below honours it.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return obs.ContextWithTrace(ctx, tc)
}

// TraceFromContext extracts the ambient trace context, ok=false if none.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	return obs.TraceFromContext(ctx)
}

// ParseTraceID decodes the 32-hex-digit form TraceID.String produces —
// the id loadgen prints for failed sampled requests.
func ParseTraceID(s string) (TraceID, bool) { return obs.ParseTraceID(s) }

// WideWriter emits one wide structured JSON log line per sampled
// request per layer. A nil WideWriter is valid and free: every Emit is
// a single nil check.
type WideWriter = obs.WideWriter

// NewWideWriter wraps an io.Writer (a file, stderr, a test buffer) in a
// wide-event writer; a nil writer yields the disabled (nil) WideWriter.
func NewWideWriter(w io.Writer) *WideWriter { return obs.NewWideWriter(w) }

// WithCollectorWideEvents makes a Collector emit an engine-layer wide
// event for each sampled job it observes.
func WithCollectorWideEvents(w *WideWriter) CollectorOption { return obs.WithWideEvents(w) }

// WithServerTracer records a server-layer span for every sampled
// request the server answers (and joins it under the caller's span via
// the wire trace block).
func WithServerTracer(t *Tracer) ServerOption { return server.WithTracer(t) }

// WithServerWideEvents emits a server-layer wide event per sampled
// request.
func WithServerWideEvents(w *WideWriter) ServerOption { return server.WithWideEvents(w) }

// WithClientTracing configures a client's tracing: spans for sampled
// calls record into t, and rate sets head sampling for requests that
// arrive without an ambient trace context (0: the client only
// propagates contexts it is handed, never mints roots). Propagation of
// an ambient sampled context is always on, with or without this option.
func WithClientTracing(t *Tracer, rate float64) ClientOption {
	return server.WithClientTracing(t, rate)
}

// WithClusterTracer records a route-attempt span for every backend call
// the cluster makes on behalf of a sampled request — primary, hedge and
// failover attempts each get one, tagged with the backend, pick reason,
// race outcome and retry-budget spend.
func WithClusterTracer(t *Tracer) ClusterOption { return cluster.WithTracer(t) }

// WithClusterWideEvents emits a route-layer wide event per backend
// attempt of a sampled request.
func WithClusterWideEvents(w *WideWriter) ClusterOption { return cluster.WithWideEvents(w) }

// SLOTracker computes rolling multi-window (5m/1h) burn rates for
// registered objectives from cumulative counters, exports them as
// montsys_slo_burn_rate_milli gauges and renders the human /statusz
// page.
type SLOTracker = obs.SLOTracker

// SLOSource reports an objective's cumulative (total, bad) event
// counts; the tracker samples it on every tick.
type SLOSource = obs.SLOSource

// NewSLOTracker builds a tracker registering its burn-rate gauges into
// r, sampling sources every interval (≤ 0 selects the default, 10s).
// Server.RegisterSLOs wires the standard per-op availability and
// latency objectives; call Start to begin sampling.
func NewSLOTracker(r *MetricsRegistry, interval time.Duration) *SLOTracker {
	return obs.NewSLOTracker(r, interval)
}

// NewObsMux serves an observability surface assembled from parts — for
// processes like montsyslb with a registry, a tracer and an SLO tracker
// but no engine collector: /metrics, /trace (nil tracer: 404), /statusz
// (nil tracker: 404), expvar and pprof. Processes with a QoS plane use
// NewQoSObsMux to serve /quotaz too.
func NewObsMux(r *MetricsRegistry, t *Tracer, slo *SLOTracker) http.Handler {
	return obs.NewMux(r, t, slo)
}

// Multi-tenant QoS. A QoSPlane in front of a server's admission gives
// every tenant its own token-bucket rate limit and weighted concurrency
// share, and the engine's submission queue becomes three priority lanes
// (interactive, batch, best-effort) scheduled earliest-deadline-first
// within a lane and strict-priority-with-aging across lanes; under
// overload the queue sheds lowest class first. Tenant identity and
// class ride the wire in an append-only frame extension, so old clients
// and servers interoperate untouched:
//
//	cfg, _ := montsys.ParseQoSSpec("acme:rate=500,burst=100,weight=3,class=interactive;" +
//	    "bulk:rate=100,weight=1,class=besteffort")
//	plane := montsys.NewQoSPlane(cfg, 4*eng.Workers(), col.Registry())
//	srv, _ := montsys.NewServer(eng, montsys.WithServerQoS(plane))
//	cl := montsys.Dial(addr, montsys.WithClientTenant("acme"))
//
// Rejections surface as ErrRateLimited (tenant bucket empty; carries a
// retry-after hint the client honours exactly) or ErrOverloaded (share
// or server capacity). /quotaz (NewQoSObsMux) renders per-tenant quota
// state, and montsys_qos_* metrics track admits, rejections, sheds,
// tokens and per-tenant latency. See README "Multi-tenant QoS" and
// DESIGN §2i.

// QoSClass is a request's scheduling class: lower is more urgent.
type QoSClass = qos.Class

// The scheduling classes.
const (
	QoSInteractive = qos.Interactive // latency-sensitive traffic
	QoSBatch       = qos.Batch       // throughput work with deadlines
	QoSBestEffort  = qos.BestEffort  // shed-first, never hedged
)

// ParseQoSClass maps a flag/spec value (interactive|batch|best-effort)
// to its class.
func ParseQoSClass(s string) (QoSClass, error) { return qos.ParseClass(s) }

// QoSIdentity is the (tenant, class) pair a request is accounted and
// scheduled under. It rides a context.Context through every tier.
type QoSIdentity = qos.Identity

// ContextWithQoS attaches a QoS identity to ctx: clients tag outbound
// requests with it (overriding their configured defaults), servers
// stamp it so engines and balancers see the wire identity.
func ContextWithQoS(ctx context.Context, id QoSIdentity) context.Context {
	return qos.WithIdentity(ctx, id)
}

// QoSFromContext extracts the ambient QoS identity (zero if untagged).
func QoSFromContext(ctx context.Context) QoSIdentity { return qos.FromContext(ctx) }

// RateLimited is the concrete error behind ErrRateLimited: which tenant
// was limited and when its bucket next refills. It survives the wire —
// errors.As recovers it from a remote rejection.
type RateLimited = errs.RateLimited

// QoSConfig is the parsed per-tenant quota table.
type QoSConfig = qos.Config

// QoSTenantConfig is one tenant's quota row.
type QoSTenantConfig = qos.TenantConfig

// ParseQoSSpec parses a tenant-quota spec —
// "tenant:rate=R,burst=B,weight=W,class=C;..." with "*" naming the
// default row — or "@path" to read the same grammar from a file.
func ParseQoSSpec(spec string) (QoSConfig, error) { return qos.ParseSpec(spec) }

// QoSPlane enforces a QoSConfig: per-tenant token buckets, weighted
// concurrency shares over an in-flight budget, and the per-tenant
// montsys_qos_* metric series.
type QoSPlane = qos.Plane

// NewQoSPlane builds a plane over cfg. budget is the concurrency total
// the tenant weights divide (≤ 0 disables share enforcement); reg takes
// the montsys_qos_* series (nil: metrics off).
func NewQoSPlane(cfg QoSConfig, budget int, reg *MetricsRegistry) *QoSPlane {
	return qos.NewPlane(cfg, budget, reg)
}

// WithServerQoS puts a QoS plane in front of the server's admission:
// tenants are charged before competing for the global in-flight bound.
func WithServerQoS(p *QoSPlane) ServerOption { return server.WithQoS(p) }

// WithEngineQoSObserver feeds the engine's shed and lane-depth events
// to an observer — pass the QoS plane so its per-tenant shed counters
// and lane-depth gauges track the scheduler.
func WithEngineQoSObserver(o engine.QoSObserver) EngineOption {
	return engine.WithQoSObserver(o)
}

// WithEngineLaneAging sets the lane-aging quantum: every full quantum a
// lane's head job has waited promotes the lane one class, bounding
// cross-class starvation (default 100ms).
func WithEngineLaneAging(d time.Duration) EngineOption { return engine.WithLaneAging(d) }

// WithClientTenant stamps every request from a client with a tenant id;
// WithClientClass sets the default scheduling class. A QoSIdentity on
// the call context overrides both per call.
func WithClientTenant(tenant string) ClientOption { return server.WithClientTenant(tenant) }

// WithClientClass sets a client's default QoS class (interactive when
// unset).
func WithClientClass(class QoSClass) ClientOption { return server.WithClientClass(class) }

// WithClusterTenants names the tenants the cluster keeps per-tenant
// pick/shed counters for; others fold into the "other" series.
func WithClusterTenants(names []string) ClusterOption { return cluster.WithTenants(names) }

// NewQoSObsMux is NewObsMux plus the /quotaz per-tenant quota page
// rendered from the QoS plane (nil plane: 404).
func NewQoSObsMux(r *MetricsRegistry, t *Tracer, slo *SLOTracker, p *QoSPlane) http.Handler {
	var q obs.Quotaz
	if p != nil {
		q = p
	}
	return obs.NewQoSMux(r, t, slo, q)
}

// Signing service. The crypto layer turns the engine into a
// side-channel-hardened signing backend: deterministic RSA keygen,
// RSA sign/verify (CRT as two concurrent half-size engine jobs
// recombined with Garner, verified before release against the Bellcore
// fault attack) and ECDSA sign / batch verify — all first-class wire
// ops, so montsysd serves them, Client calls them, and a Cluster routes
// them by key handle on the same rendezvous-hash plane as moduli. Every
// wire-facing private-key operation runs blinded (message + exponent
// blinding; masked nonce inversion for ECDSA), and internal/sca holds
// the Welch t-test regression gate that keeps it that way:
//
//	svc := montsys.NewSignService(eng)                 // blinding on
//	srv, _ := montsys.NewServer(eng, montsys.WithServerSignService(svc))
//	cl := montsys.Dial(addr)
//	key, _ := cl.KeygenRSA(ctx, 2048, seed)            // deterministic — repro/test only
//	sig, _ := cl.SignRSA(ctx, key, digest)             // blinded CRT
//	ok, _ := cl.VerifyRSA(ctx, key.N, key.E, digest, sig)
//
// The wire keygen derives its key from the request's 64-bit seed —
// idempotent and retryable, which is the point for reproduction
// workloads, and exactly why it must not mint production keys (64 bits
// of effective entropy, seed and key both on the wire). Keys worth
// protecting are generated locally with SignService.KeygenRSACrypto,
// whose randomness comes from crypto/rand — as does all blinding
// randomness unless WithSignBlindSeed overrides it for a test.
//
// See README "Signing service" and DESIGN §2h for how CRT maps onto the
// paper's replicated arrays and blinding onto its countermeasure story.

// SignService executes the signing operations over an engine. It is
// what NewServer installs by default; build one explicitly to change
// blinding policy.
type SignService = cryptosvc.Service

// SignServiceOption configures NewSignService.
type SignServiceOption = cryptosvc.Option

// NewSignService builds a signing service over the engine, blinding on.
func NewSignService(eng *Engine, opts ...SignServiceOption) *SignService {
	return cryptosvc.New(eng, opts...)
}

// WithSignBlinding toggles message + exponent blinding on the signing
// service's private-key paths (default on; off is for the SCA gate's
// positive control only).
func WithSignBlinding(on bool) SignServiceOption { return cryptosvc.WithBlinding(on) }

// WithSignBlindSeed makes the blinding masks deterministic — tests and
// trace-capture campaigns only; production keeps the default
// crypto-quality source.
func WithSignBlindSeed(seed int64) SignServiceOption { return cryptosvc.WithBlindSeed(seed) }

// WithServerSignService overrides the signing service an engine-backed
// server executes signing ops with — e.g. blinding off for a lab
// target, or a shared service across servers.
func WithServerSignService(svc *SignService) ServerOption { return server.WithSignService(svc) }

// SignHandler is the signing-capable server handler: Handler plus the
// five signing ops. An engine-backed Server, a Client and a Cluster all
// satisfy it — which is why a balancer fronts signing backends with no
// protocol changes.
type SignHandler = server.SignHandler

// Both remote tiers serve signing: montsyslb is NewHandlerServer over
// either.
var (
	_ SignHandler = (*Client)(nil)
	_ SignHandler = (*Cluster)(nil)
)

// RSAPrivateKey is a CRT-capable RSA private key (N, E, D and the
// CRT fields P, Q, DP, DQ, QInv; nil CRT fields select the plain
// d-exponent path).
type RSAPrivateKey = rsa.PrivateKey

// RSAPublicKey is the public half (N, E).
type RSAPublicKey = rsa.PublicKey

// ECDSAVerifyItem is one (public point, signature, digest) tuple for
// batch verification.
type ECDSAVerifyItem = cryptosvc.ECDSAVerifyItem

// ECDSAVerifyResult is one item's verdict: OK, or a per-item error
// (off-curve point → ErrBadKey, missing fields → ErrOperandRange).
type ECDSAVerifyResult = cryptosvc.VerifyResult

// Curve identifiers for the ECDSA wire ops.
const (
	CurveP256 = cryptosvc.CurveP256
	CurveP384 = cryptosvc.CurveP384
)

// RSAKeyHandle fingerprints an RSA key by modulus for key-affinity
// routing (nil modulus → nil handle → least-inflight routing).
func RSAKeyHandle(n *big.Int) []byte { return cryptosvc.RSAKeyHandle(n) }

// ECDSAKeyHandle fingerprints an ECDSA key (curve + identifying parts)
// for key-affinity routing.
func ECDSAKeyHandle(curveID uint8, parts ...*big.Int) []byte {
	return cryptosvc.ECDSAKeyHandle(curveID, parts...)
}

// Hardware builds and maps the full gate-level MMM circuit for an l-bit
// modulus, reporting area and timing under the Virtex-E model — the
// data behind the paper's Table 2.
func Hardware(l int) (HardwareReport, error) { return core.Hardware(l) }
