package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span is one recorded unit of work. Engine job spans are the original
// shape: enqueued at Start, waited QueueWait in the submission queue,
// then executed for Exec on worker core Worker, with SimCycles carrying
// measured MMMC clock cycles on the Sim kit and Integrity the time
// spent re-verifying the result. Since the tracing plane went
// cluster-wide the same struct also records client, route and server
// spans: those set Track to a named lane instead of a worker core, and
// sampled requests thread TraceID/SpanID/Parent through every layer so
// the exported spans of one request join into a single tree.
type Span struct {
	Name      string        // "modexp", "server/modexp", "route/modexp", ...
	Worker    int           // core that executed the job (Track == "")
	Track     string        // named lane ("client", "route", "server"); "" = worker core
	Outcome   string        // "ok" | "failed" | "canceled" | wire code string
	Start     time.Time     // span open instant (enqueue, for engine jobs)
	QueueWait time.Duration // enqueue → dequeue (engine jobs)
	Exec      time.Duration // dequeue → finish, or whole span duration
	Integrity time.Duration // tail of Exec spent in the integrity check
	SimCycles int64         // measured MMMC cycles (Sim kit)
	Kit       string        // concrete compute kit ("model", "cios", ...)

	// Work accounting carried so Collector.JobSpan can do the full
	// metrics bookkeeping from a span alone (zero for failures and for
	// non-engine spans).
	Muls        int64 // Montgomery products executed by the job
	ModelCycles int64 // paper-formula cycles (§4.5 report model)

	// Cross-process identity, zero for untraced work. Parent is the
	// span id of the enclosing span in the calling layer (zero = root).
	TraceID TraceID
	SpanID  SpanID
	Parent  SpanID

	// Attrs are free-form key/value annotations exported into the
	// trace-event args (pick reason, backend address, hedge verdict...).
	Attrs []Attr

	// Instant marks a point event (quarantine, probe) rather than a
	// duration: exported as a Chrome instant event at Start.
	Instant bool
}

// Attr is one key/value span annotation.
type Attr struct{ Key, Val string }

// Tracer is a bounded ring buffer of spans. When full, the oldest span
// is overwritten — a crash-cart flight recorder, not an archival log.
// All methods are safe for concurrent use; recording takes a short
// mutex (two copies and two index bumps), negligible next to a modular
// exponentiation.
type Tracer struct {
	mu    sync.Mutex
	ring  []Span
	next  int
	full  bool
	total int64

	procName string
	procPid  int
}

// DefaultTraceCapacity bounds a Tracer built with capacity ≤ 0.
const DefaultTraceCapacity = 4096

// NewTracer returns a tracer keeping the most recent capacity spans.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]Span, capacity)}
}

// SetProcess names the process in the Chrome export: Perfetto shows
// one named process group per exporting daemon instead of "pid 1", and
// the real pid keeps tracks from colliding when traces from several
// processes are merged into one file (see cmd/tracecat).
func (t *Tracer) SetProcess(name string) {
	t.mu.Lock()
	t.procName, t.procPid = name, os.Getpid()
	t.mu.Unlock()
}

// Record appends one span, overwriting the oldest when full.
func (t *Tracer) Record(s Span) {
	t.mu.Lock()
	t.ring[t.next] = s
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.total++
	t.mu.Unlock()
}

// RecordInstant appends a point event (quarantine, probe verdict) on a
// worker-core track at time now.
func (t *Tracer) RecordInstant(name string, worker int, now time.Time) {
	t.Record(Span{Name: name, Worker: worker, Start: now, Instant: true})
}

// Len returns the number of spans currently held (≤ capacity).
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.ring)
	}
	return t.next
}

// Total returns the number of spans ever recorded, including ones the
// ring has since overwritten.
func (t *Tracer) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Spans returns the held spans oldest-first.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Span(nil), t.ring[:t.next]...)
	}
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// traceEvent is one Chrome trace-event ("Trace Event Format", the JSON
// consumed by Perfetto and chrome://tracing). Only the fields the
// complete-event ("X"), instant-event ("i") and metadata ("M") phases
// need.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`            // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Scope string         `json:"s,omitempty"` // instant-event scope
	Args  map[string]any `json:"args,omitempty"`
}

// namedTrackBase is the first tid handed to named (non-worker) tracks,
// far above any plausible worker-core id.
const namedTrackBase = 1000

// WriteChromeTrace exports the held spans as a Chrome trace-event JSON
// document: process_name/thread_name metadata first (so Perfetto shows
// the daemon and its cores by name, not bare pids/tids), then one
// "queued" slice and one execution slice per job — with a nested
// integrity slice when the result was re-verified — on a per-worker
// track, plus client/route/server spans on named tracks. Sampled spans
// carry trace_id/span_id/parent_id in their args; cmd/tracecat joins
// the exports of several processes on those ids. Timestamps are
// absolute wall-clock microseconds, so independently exported traces
// line up when merged. Open the output in Perfetto (ui.perfetto.dev)
// or chrome://tracing.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	t.mu.Lock()
	procName, pid := t.procName, t.procPid
	t.mu.Unlock()
	if pid == 0 {
		pid = 1
	}

	workers := map[int]bool{}
	named := map[string]int{}
	for i := range spans {
		if spans[i].Track != "" {
			named[spans[i].Track] = 0
		} else {
			workers[spans[i].Worker] = true
		}
	}
	workerIDs := make([]int, 0, len(workers))
	for id := range workers {
		workerIDs = append(workerIDs, id)
	}
	sort.Ints(workerIDs)
	trackNames := make([]string, 0, len(named))
	for name := range named {
		trackNames = append(trackNames, name)
	}
	sort.Strings(trackNames)
	for i, name := range trackNames {
		named[name] = namedTrackBase + i
	}

	events := make([]traceEvent, 0, 2*len(spans)+len(workers)+len(named)+1)
	if procName != "" {
		events = append(events, traceEvent{
			Name: "process_name", Phase: "M", Pid: pid,
			Args: map[string]any{"name": procName},
		})
	}
	for _, id := range workerIDs {
		events = append(events, traceEvent{
			Name: "thread_name", Phase: "M", Pid: pid, Tid: id,
			Args: map[string]any{"name": "core-" + strconv.Itoa(id)},
		})
	}
	for _, name := range trackNames {
		events = append(events, traceEvent{
			Name: "thread_name", Phase: "M", Pid: pid, Tid: named[name],
			Args: map[string]any{"name": name},
		})
	}

	for i := range spans {
		s := &spans[i]
		tid := s.Worker
		if s.Track != "" {
			tid = named[s.Track]
		}
		ts := float64(s.Start.UnixNano()) / float64(time.Microsecond)
		if s.Instant {
			events = append(events, traceEvent{
				Name: s.Name, Phase: "i", Cat: "event", Scope: "t",
				Ts: ts, Pid: pid, Tid: tid,
			})
			continue
		}
		wait := float64(s.QueueWait) / float64(time.Microsecond)
		exec := float64(s.Exec) / float64(time.Microsecond)
		if s.QueueWait > 0 {
			events = append(events, traceEvent{
				Name: s.Name + "/queued", Phase: "X", Cat: "queue",
				Ts: ts, Dur: wait, Pid: pid, Tid: tid,
				Args: traceIDArgs(s, nil),
			})
		}
		args := map[string]any{"outcome": s.Outcome}
		if s.SimCycles > 0 {
			args["simCycles"] = s.SimCycles
		}
		if s.Kit != "" {
			args["kit"] = s.Kit
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Val
		}
		cat := "exec"
		if s.Track != "" {
			cat = s.Track
		}
		events = append(events, traceEvent{
			Name: s.Name, Phase: "X", Cat: cat,
			Ts: ts + wait, Dur: exec, Pid: pid, Tid: tid,
			Args: traceIDArgs(s, args),
		})
		if s.Integrity > 0 {
			integ := float64(s.Integrity) / float64(time.Microsecond)
			events = append(events, traceEvent{
				Name: s.Name + "/integrity", Phase: "X", Cat: "integrity",
				Ts: ts + wait + exec - integ, Dur: integ, Pid: pid, Tid: tid,
				Args: traceIDArgs(s, nil),
			})
		}
	}
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// traceIDArgs adds the span's cross-process identity to args (creating
// the map if needed) when the span belongs to a sampled trace.
func traceIDArgs(s *Span, args map[string]any) map[string]any {
	if s.TraceID.IsZero() {
		return args
	}
	if args == nil {
		args = make(map[string]any, 3)
	}
	args["trace_id"] = s.TraceID.String()
	args["span_id"] = s.SpanID.String()
	if !s.Parent.IsZero() {
		args["parent_id"] = s.Parent.String()
	}
	return args
}
