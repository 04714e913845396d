package main

// In-memory span recording for the traced run, and the self-time
// arithmetic over it. Spans are kept in memory during the run and
// reduced when it ends.
//
// A request's spans are grouped by trace id and by level (client,
// balancer handler, backend handler, engine job). Level k's coverage
// is the union of its spans, clipped to level k−1's coverage; a
// level's self time is its coverage minus the next level's. The self
// times of one request therefore add up to its client span exactly,
// including hedged requests whose two backend spans overlap and CRT
// signatures whose two engine jobs run side by side.
//
// Because the clipping makes the sum exact whatever the spans are, the
// run is judged on the raw spans instead: every answered request must
// have a span at every level (every operation the workloads send runs
// engine jobs), and on a single path (one backend span) each span must
// lie inside a span of the level above it. A trace id lost at a hop
// would otherwise move the lower levels' time into the upper level's
// self time without notice.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

type spanRec struct {
	trace      obs.TraceID
	level      int
	start, end time.Duration // offsets from the recorder's base instant
}

// jobRec is one engine job that finished ok.
type jobRec struct {
	queueWait, exec time.Duration
	muls            int64
}

type recorder struct {
	base time.Time

	mu    sync.Mutex
	spans []spanRec
	jobs  []jobRec
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) add(id obs.TraceID, level int, start, end time.Time) {
	s := spanRec{trace: id, level: level, start: start.Sub(r.base), end: end.Sub(r.base)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) addJob(s obs.Span) {
	j := jobRec{queueWait: s.QueueWait, exec: s.Exec, muls: s.Muls}
	r.mu.Lock()
	r.jobs = append(r.jobs, j)
	r.mu.Unlock()
	if !s.TraceID.IsZero() {
		r.add(s.TraceID, levelEngine, s.Start, s.Start.Add(s.QueueWait+s.Exec))
	}
}

// reset drops everything recorded so far (the warm-up pass).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans, r.jobs = r.spans[:0], r.jobs[:0]
	r.mu.Unlock()
}

// interval is a half-open time range [lo, hi).
type interval struct{ lo, hi time.Duration }

// union merges intervals into a sorted, disjoint list.
func union(in []interval) []interval {
	sort.Slice(in, func(i, j int) bool { return in[i].lo < in[j].lo })
	var out []interval
	for _, iv := range in {
		if iv.hi <= iv.lo {
			continue
		}
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			if iv.hi > out[n-1].hi {
				out[n-1].hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// intersect clips the disjoint sorted list a to the disjoint sorted
// list b.
func intersect(a, b []interval) []interval {
	var out []interval
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if lo < hi {
			out = append(out, interval{lo, hi})
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return out
}

func total(in []interval) (d time.Duration) {
	for _, iv := range in {
		d += iv.hi - iv.lo
	}
	return d
}

// selfTimes reduces one request's spans to per-level self times; the
// entries sum to client, the client span's length.
func selfTimes(spans []spanRec) (self [numLevels]time.Duration, client time.Duration) {
	var byLevel [numLevels][]interval
	for _, s := range spans {
		byLevel[s.level] = append(byLevel[s.level], interval{s.start, s.end})
	}
	var cover [numLevels][]interval
	cover[0] = union(byLevel[0])
	for k := 1; k < numLevels; k++ {
		cover[k] = intersect(union(byLevel[k]), cover[k-1])
	}
	for k := 0; k < numLevels; k++ {
		self[k] = total(cover[k])
		if k+1 < numLevels {
			self[k] -= total(cover[k+1])
		}
	}
	return self, total(cover[0])
}

// spanTolerance is how far a span may reach outside its parent's
// interval. Every span is stamped from the same monotonic clock, and a
// child returns before its parent does, so only clock rounding is
// allowed.
const spanTolerance = time.Microsecond

// nesting checks one answered request's raw spans. missing is set when
// some level has no span; multiPath when the balancer reached more than
// one backend (a hedge or a failover), whose losing attempt may
// outlive the balancer's span, so only the client and balancer levels
// are checked for nesting; overrun when a span lies outside every span
// of the level above by more than spanTolerance.
func nesting(spans []spanRec) (missing, multiPath, overrun bool) {
	var byLevel [numLevels][]spanRec
	for _, s := range spans {
		byLevel[s.level] = append(byLevel[s.level], s)
	}
	for _, l := range byLevel {
		missing = missing || len(l) == 0
	}
	if missing {
		return missing, false, false
	}
	multiPath = len(byLevel[levelBackend]) > 1
	for k := levelBalancer; k < numLevels; k++ {
		if multiPath && k > levelBalancer {
			break
		}
		for _, c := range byLevel[k] {
			inside := false
			for _, p := range byLevel[k-1] {
				inside = inside || (c.start >= p.start-spanTolerance && c.end <= p.end+spanTolerance)
			}
			overrun = overrun || !inside
		}
	}
	return missing, multiPath, overrun
}

// traceSummary is the mean per-request breakdown over every request
// that has a client span (the traced client records one for each
// request answered without error).
type traceSummary struct {
	requests int
	self     [numLevels]time.Duration // mean self time per level
	client   time.Duration            // mean client span

	incomplete int // requests with no span at some level
	overruns   int // requests with a span outside its parent
	multiPath  int // requests that reached more than one backend
}

// err reports a breakdown the run must not trust.
func (s traceSummary) err() error {
	switch {
	case s.requests == 0:
		return errors.New("no traced requests")
	case s.incomplete > 0:
		return fmt.Errorf("%d of %d traced requests lack a span at some level", s.incomplete, s.requests)
	case s.overruns > 0:
		return fmt.Errorf("%d of %d traced requests have a span outside its parent by more than %s",
			s.overruns, s.requests, spanTolerance)
	}
	return nil
}

func (r *recorder) summarize() traceSummary {
	r.mu.Lock()
	byTrace := make(map[obs.TraceID][]spanRec)
	for _, s := range r.spans {
		byTrace[s.trace] = append(byTrace[s.trace], s)
	}
	r.mu.Unlock()
	var sum traceSummary
	var selfSum [numLevels]time.Duration
	var clientSum time.Duration
	for _, spans := range byTrace {
		hasClient := false
		for _, s := range spans {
			hasClient = hasClient || s.level == levelClient
		}
		if !hasClient {
			continue
		}
		missing, multiPath, overrun := nesting(spans)
		sum.requests++
		switch {
		case missing:
			sum.incomplete++
			continue
		case overrun:
			sum.overruns++
		}
		if multiPath {
			sum.multiPath++
		}
		self, client := selfTimes(spans)
		for k := range self {
			selfSum[k] += self[k]
		}
		clientSum += client
	}
	if n := sum.requests - sum.incomplete; n > 0 {
		for k := range selfSum {
			sum.self[k] = selfSum[k] / time.Duration(n)
		}
		sum.client = clientSum / time.Duration(n)
	}
	return sum
}
