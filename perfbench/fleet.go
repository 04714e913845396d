package main

// The in-process fleet: one balancer (a cluster.Cluster behind a wire
// server, montsyslb's defaults) in front of two engine-backed wire
// servers (montsysd's defaults with the kit pinned to CIOS), all on
// loopback, plus the 2-connection client that drives them.
//
// A traced fleet differs only at the boundaries the benchmark
// instruments: the balancer's handler and each backend's handler are
// wrapped to record spans, each engine's observer is tapped for job
// spans and cache traffic, and every listener counts the reads, writes
// and bytes of the connections it accepts.

import (
	"context"
	"fmt"
	"math/big"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cryptosvc"
	"repro/internal/engine"
	"repro/internal/kits"
	"repro/internal/obs"
	"repro/internal/rsa"
	"repro/internal/server"
)

const (
	fleetBackends = 2
	ctxCacheSize  = 128  // montsysd -cache default
	traceRingCap  = 4096 // montsysd/montsyslb -trace default
	clientPool    = 2
)

// backendNode is one montsysd-equivalent: engine, signing service and
// wire server.
type backendNode struct {
	eng *engine.Engine
	srv *server.Server
}

type fleet struct {
	backends []backendNode
	cl       *cluster.Cluster
	lb       *server.Server
	client   *server.Client

	conns *connCounter // traced fleets only

	serveWG   sync.WaitGroup
	closeOnce sync.Once
}

// newFleet builds and starts the fleet; rec != nil makes it traced.
func newFleet(rec *recorder) (*fleet, error) {
	f := &fleet{}
	if rec != nil {
		f.conns = &connCounter{}
	}
	var addrs []string
	for i := 0; i < fleetBackends; i++ {
		col := obs.NewCollector(obs.WithTracing(traceRingCap))
		col.Tracer().SetProcess(fmt.Sprintf("montsysd-%d", i))
		var observer engine.Observer = col
		if rec != nil {
			observer = &engineTap{Collector: col, rec: rec}
		}
		eng, err := engine.New(
			engine.WithKit(kits.CIOS),
			engine.WithCtxCacheSize(ctxCacheSize),
			engine.WithObserver(observer),
		)
		if err != nil {
			f.Close()
			return nil, err
		}
		col.SetEngineInfo(eng.Workers(), kits.CIOS.String(), "guarded")
		svc := cryptosvc.New(eng)
		opts := []server.Option{
			server.WithRegistry(col.Registry()),
			server.WithTracer(col.Tracer()),
			server.WithSignService(svc),
		}
		var srv *server.Server
		if rec != nil {
			srv, err = server.NewHandlerServer(&backendTap{eng: eng, svc: svc, rec: rec},
				append(opts, server.WithMaxInflight(4*eng.Workers()))...)
		} else {
			srv, err = server.NewServer(eng, opts...)
		}
		if err != nil {
			eng.Close()
			f.Close()
			return nil, err
		}
		f.backends = append(f.backends, backendNode{eng: eng, srv: srv})
		addr, err := f.serve(srv)
		if err != nil {
			f.Close()
			return nil, err
		}
		addrs = append(addrs, addr)
	}

	registry := obs.NewRegistry()
	tracer := obs.NewTracer(traceRingCap)
	tracer.SetProcess("montsyslb")
	cl, err := cluster.New(addrs,
		cluster.WithRegistry(registry),
		cluster.WithTracer(tracer),
	)
	if err != nil {
		f.Close()
		return nil, err
	}
	f.cl = cl
	var h server.Handler = cl
	if rec != nil {
		h = &balancerTap{cl: cl, rec: rec}
	}
	lb, err := server.NewHandlerServer(h,
		server.WithMaxInflight(server.DefaultHandlerInflight),
		server.WithRegistry(registry),
		server.WithTracer(tracer),
	)
	if err != nil {
		f.Close()
		return nil, err
	}
	f.lb = lb
	lbAddr, err := f.serve(lb)
	if err != nil {
		f.Close()
		return nil, err
	}
	copts := []server.ClientOption{server.WithPoolSize(clientPool)}
	if rec != nil {
		copts = append(copts, server.WithClientTracing(obs.NewTracer(traceRingCap), 1))
	}
	f.client = server.Dial(lbAddr, copts...)
	return f, nil
}

// serve starts srv on a fresh loopback listener.
func (f *fleet) serve(srv *server.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if f.conns != nil {
		ln = &countingListener{Listener: ln, c: f.conns}
	}
	f.serveWG.Add(1)
	go func() {
		defer f.serveWG.Done()
		// Serve returns nil once Close stops it; an accept failure
		// before that shows up as failed requests.
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Close tears the fleet down front to back and waits for every serve
// loop to return. It is idempotent.
func (f *fleet) Close() { f.closeOnce.Do(f.close) }

func (f *fleet) close() {
	if f.client != nil {
		f.client.Close()
	}
	if f.lb != nil {
		f.lb.Close()
	}
	if f.cl != nil {
		f.cl.Close()
	}
	for _, b := range f.backends {
		b.srv.Close()
		b.eng.Close()
	}
	f.serveWG.Wait()
}

// engineStats sums the backends' engine counters.
func (f *fleet) engineStats() (s engine.Stats) {
	for _, b := range f.backends {
		st := b.eng.Stats()
		s.Completed += st.Completed
		s.Muls += st.Muls
		s.CtxHits += st.CtxHits
		s.CtxMisses += st.CtxMisses
		s.CtxEvictions += st.CtxEvictions
	}
	return s
}

// clusterCounts reads the balancer's routing counters from its
// registry (registration is idempotent: these are the live series).
type clusterCounts struct {
	picks, affinity, hedges, failovers int64
}

func (f *fleet) clusterCounts(addrs []string) clusterCounts {
	reg := f.cl.Registry()
	var c clusterCounts
	for _, a := range addrs {
		for _, reason := range []string{"affinity", "spill", "least_inflight", "failover",
			"hedge", "handover", "warmup"} {
			v := reg.CounterLabeled("montsys_cluster_picks_total", "",
				obs.Label("backend", a), obs.Label("reason", reason)).Value()
			c.picks += v
			if reason == "affinity" {
				c.affinity += v
			}
		}
	}
	c.hedges = reg.Counter("montsys_cluster_hedges_total", "").Value()
	c.failovers = reg.Counter("montsys_cluster_failovers_total", "").Value()
	return c
}

// backendAddrs lists the backends' listen addresses.
func (f *fleet) backendAddrs() []string {
	var out []string
	for _, b := range f.backends {
		out = append(out, b.srv.Addr().String())
	}
	return out
}

// Span levels, outermost first. A request's spans at level k+1 lie
// inside its spans at level k.
const (
	levelClient = iota
	levelBalancer
	levelBackend
	levelEngine
	numLevels
)

// balancerTap wraps the balancer's handler: one span per call, under
// the trace id the client's traced op carried in.
type balancerTap struct {
	cl  *cluster.Cluster
	rec *recorder
}

func span[T any](rec *recorder, ctx context.Context, level int, fn func() (T, error)) (T, error) {
	start := time.Now()
	v, err := fn()
	if tc, ok := obs.TraceFromContext(ctx); ok {
		rec.add(tc.TraceID, level, start, time.Now())
	}
	return v, err
}

func (t *balancerTap) Mont(ctx context.Context, n, x, y *big.Int) (*big.Int, error) {
	return span(t.rec, ctx, levelBalancer, func() (*big.Int, error) { return t.cl.Mont(ctx, n, x, y) })
}

func (t *balancerTap) ModExp(ctx context.Context, n, b, e *big.Int) (*big.Int, error) {
	return span(t.rec, ctx, levelBalancer, func() (*big.Int, error) { return t.cl.ModExp(ctx, n, b, e) })
}

func (t *balancerTap) ModExpBatch(ctx context.Context, jobs []engine.ModExpJob) ([]engine.ModExpResult, error) {
	return span(t.rec, ctx, levelBalancer, func() ([]engine.ModExpResult, error) { return t.cl.ModExpBatch(ctx, jobs) })
}

func (t *balancerTap) KeygenRSA(ctx context.Context, bits int, seed int64) (*rsa.PrivateKey, error) {
	return span(t.rec, ctx, levelBalancer, func() (*rsa.PrivateKey, error) { return t.cl.KeygenRSA(ctx, bits, seed) })
}

func (t *balancerTap) SignRSA(ctx context.Context, key *rsa.PrivateKey, digest *big.Int) (*big.Int, error) {
	return span(t.rec, ctx, levelBalancer, func() (*big.Int, error) { return t.cl.SignRSA(ctx, key, digest) })
}

func (t *balancerTap) VerifyRSA(ctx context.Context, n, e, digest, sig *big.Int) (bool, error) {
	return span(t.rec, ctx, levelBalancer, func() (bool, error) { return t.cl.VerifyRSA(ctx, n, e, digest, sig) })
}

func (t *balancerTap) SignECDSA(ctx context.Context, curve uint8, d, digest *big.Int, seed int64) (*big.Int, *big.Int, error) {
	var s *big.Int
	r, err := span(t.rec, ctx, levelBalancer, func() (*big.Int, error) {
		r, sv, err := t.cl.SignECDSA(ctx, curve, d, digest, seed)
		s = sv
		return r, err
	})
	return r, s, err
}

func (t *balancerTap) VerifyECDSABatch(ctx context.Context, curve uint8, items []cryptosvc.ECDSAVerifyItem) ([]cryptosvc.VerifyResult, error) {
	return span(t.rec, ctx, levelBalancer, func() ([]cryptosvc.VerifyResult, error) {
		return t.cl.VerifyECDSABatch(ctx, curve, items)
	})
}

// backendTap is a backend's handler: the engine for the compute ops
// and the signing service for the rest — what server.NewServer builds
// internally — with one span per call.
type backendTap struct {
	eng *engine.Engine
	svc *cryptosvc.Service
	rec *recorder
}

func (t *backendTap) Mont(ctx context.Context, n, x, y *big.Int) (*big.Int, error) {
	return span(t.rec, ctx, levelBackend, func() (*big.Int, error) {
		dl, _ := ctx.Deadline()
		res, err := t.eng.MontBatch(ctx, []engine.MontJob{{N: n, X: x, Y: y, Deadline: dl}})
		if err == nil {
			err = res[0].Err
		}
		if err != nil {
			return nil, err
		}
		return res[0].Value, nil
	})
}

func (t *backendTap) ModExp(ctx context.Context, n, b, e *big.Int) (*big.Int, error) {
	return span(t.rec, ctx, levelBackend, func() (*big.Int, error) {
		dl, _ := ctx.Deadline()
		res, err := t.eng.ModExpBatch(ctx, []engine.ModExpJob{{N: n, Base: b, Exp: e, Deadline: dl}})
		if err == nil {
			err = res[0].Err
		}
		if err != nil {
			return nil, err
		}
		return res[0].Value, nil
	})
}

func (t *backendTap) ModExpBatch(ctx context.Context, jobs []engine.ModExpJob) ([]engine.ModExpResult, error) {
	return span(t.rec, ctx, levelBackend, func() ([]engine.ModExpResult, error) {
		res, err := t.eng.ModExpBatch(ctx, jobs)
		if len(res) == len(jobs) {
			return res, nil
		}
		return res, err
	})
}

func (t *backendTap) KeygenRSA(ctx context.Context, bits int, seed int64) (*rsa.PrivateKey, error) {
	return span(t.rec, ctx, levelBackend, func() (*rsa.PrivateKey, error) { return t.svc.KeygenRSA(ctx, bits, seed) })
}

func (t *backendTap) SignRSA(ctx context.Context, key *rsa.PrivateKey, digest *big.Int) (*big.Int, error) {
	return span(t.rec, ctx, levelBackend, func() (*big.Int, error) { return t.svc.SignRSA(ctx, key, digest) })
}

func (t *backendTap) VerifyRSA(ctx context.Context, n, e, digest, sig *big.Int) (bool, error) {
	return span(t.rec, ctx, levelBackend, func() (bool, error) { return t.svc.VerifyRSA(ctx, n, e, digest, sig) })
}

func (t *backendTap) SignECDSA(ctx context.Context, curve uint8, d, digest *big.Int, seed int64) (*big.Int, *big.Int, error) {
	var s *big.Int
	r, err := span(t.rec, ctx, levelBackend, func() (*big.Int, error) {
		r, sv, err := t.svc.SignECDSA(ctx, curve, d, digest, seed)
		s = sv
		return r, err
	})
	return r, s, err
}

func (t *backendTap) VerifyECDSABatch(ctx context.Context, curve uint8, items []cryptosvc.ECDSAVerifyItem) ([]cryptosvc.VerifyResult, error) {
	return span(t.rec, ctx, levelBackend, func() ([]cryptosvc.VerifyResult, error) {
		return t.svc.VerifyECDSABatch(ctx, curve, items)
	})
}

// engineTap forwards every engine callback to the backend's collector
// (montsysd's observer) and also records the jobs that finish ok.
type engineTap struct {
	*obs.Collector
	rec *recorder
}

func (t *engineTap) JobSpan(s obs.Span) {
	t.Collector.JobSpan(s)
	if s.Outcome == "ok" {
		t.rec.addJob(s)
	}
}

// connCounter totals read/write calls and bytes over every connection
// the fleet's servers accept.
type connCounter struct {
	reads, writes, bytes atomic.Int64
}

type countingListener struct {
	net.Listener
	c *connCounter
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *connCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}
