package main

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func us2d(v int) time.Duration { return time.Duration(v) * time.Microsecond }

func TestSelfTimesSyntheticTree(t *testing.T) {
	id := obs.TraceID{1}
	sp := func(level, lo, hi int) spanRec {
		return spanRec{trace: id, level: level, start: us2d(lo), end: us2d(hi)}
	}
	cases := []struct {
		name   string
		spans  []spanRec
		self   [numLevels]time.Duration
		client time.Duration
	}{
		{
			name: "plain chain",
			spans: []spanRec{
				sp(levelClient, 0, 100), sp(levelBalancer, 10, 90),
				sp(levelBackend, 20, 80), sp(levelEngine, 30, 70),
			},
			self:   [numLevels]time.Duration{us2d(20), us2d(20), us2d(20), us2d(40)},
			client: us2d(100),
		},
		{
			// A hedged request: the balancer's first attempt is slow, the
			// hedge on the second backend starts later and wins; the
			// loser's engine job is cut short when it is canceled.
			name: "hedged, two backend spans",
			spans: []spanRec{
				sp(levelClient, 0, 200), sp(levelBalancer, 10, 190),
				sp(levelBackend, 20, 150), sp(levelEngine, 30, 150),
				sp(levelBackend, 100, 180), sp(levelEngine, 110, 170),
			},
			// backends cover [20,180) = 160; engines cover [30,170) = 140.
			self:   [numLevels]time.Duration{us2d(20), us2d(20), us2d(20), us2d(140)},
			client: us2d(200),
		},
		{
			// A CRT signature: two engine jobs side by side, plus the
			// blinding and verify jobs before and after them.
			name: "parallel engine jobs",
			spans: []spanRec{
				sp(levelClient, 0, 1000), sp(levelBalancer, 50, 950),
				sp(levelBackend, 100, 900),
				sp(levelEngine, 110, 150),
				sp(levelEngine, 200, 700), sp(levelEngine, 210, 650),
				sp(levelEngine, 800, 850),
			},
			self:   [numLevels]time.Duration{us2d(100), us2d(100), us2d(210), us2d(590)},
			client: us2d(1000),
		},
		{
			// A child that outlives its parent (an abandoned engine job)
			// is clipped to the parent's interval.
			name: "child beyond parent is clipped",
			spans: []spanRec{
				sp(levelClient, 0, 100), sp(levelBalancer, 10, 90),
				sp(levelBackend, 20, 60), sp(levelEngine, 30, 500),
			},
			self:   [numLevels]time.Duration{us2d(20), us2d(40), us2d(10), us2d(30)},
			client: us2d(100),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			self, client := selfTimes(tc.spans)
			if self != tc.self || client != tc.client {
				t.Fatalf("self %v client %v, want %v %v", self, client, tc.self, tc.client)
			}
			var sum time.Duration
			for _, s := range self {
				sum += s
			}
			if sum != client {
				t.Fatalf("self times sum to %v, client span is %v", sum, client)
			}
		})
	}
}

func TestRecorderSummarize(t *testing.T) {
	rec := newRecorder()
	base := rec.base
	at := func(v int) time.Time { return base.Add(us2d(v)) }
	for i, id := range []obs.TraceID{{1}, {2}} {
		off := 1000 * i
		rec.add(id, levelClient, at(off), at(off+100))
		rec.add(id, levelBalancer, at(off+10), at(off+90))
		rec.add(id, levelBackend, at(off+20), at(off+80))
		rec.addJob(obs.Span{TraceID: id, Start: at(off + 30), QueueWait: us2d(5), Exec: us2d(35), Muls: 7})
	}
	// Spans without a client span (background work) are ignored.
	rec.add(obs.TraceID{3}, levelBackend, at(5000), at(5100))
	sum := rec.summarize()
	if sum.requests != 2 || sum.client != us2d(100) || sum.err() != nil {
		t.Fatalf("summary %+v, err %v", sum, sum.err())
	}
	want := [numLevels]time.Duration{us2d(20), us2d(20), us2d(20), us2d(40)}
	if sum.self != want {
		t.Fatalf("self %v, want %v", sum.self, want)
	}
	if len(rec.jobs) != 2 || rec.jobs[0].muls != 7 {
		t.Fatalf("jobs %+v", rec.jobs)
	}
}

// TestBrokenTracesFail checks that the traced run's gate can fail: a
// request whose trace id was lost at a hop, or whose span lies outside
// its parent's, is rejected, while a hedge whose losing attempt
// outlives the balancer's span is not.
func TestBrokenTracesFail(t *testing.T) {
	sp := func(id byte, level, lo, hi int) spanRec {
		return spanRec{trace: obs.TraceID{id}, level: level, start: us2d(lo), end: us2d(hi)}
	}
	chain := func(id byte) []spanRec {
		return []spanRec{sp(id, levelClient, 0, 100), sp(id, levelBalancer, 10, 90),
			sp(id, levelBackend, 20, 80), sp(id, levelEngine, 30, 70)}
	}
	cases := []struct {
		name  string
		spans []spanRec
		ok    bool
	}{
		{"whole chain", chain(1), true},
		{"no engine span", chain(1)[:3], false},
		{"no backend span", append(chain(1)[:2], sp(1, levelEngine, 30, 70)), false},
		{"no balancer or lower span", chain(1)[:1], false},
		{"engine job past its backend", append(chain(1)[:3], sp(1, levelEngine, 30, 85)), false},
		{"backend before its balancer", append(chain(1)[:2], sp(1, levelBackend, 5, 80), sp(1, levelEngine, 30, 70)), false},
		{"hedge loser outlives the balancer", append(chain(1),
			sp(1, levelBackend, 50, 120), sp(1, levelEngine, 60, 115)), true},
		{"balancer past the client in a hedge", append(chain(1),
			sp(1, levelBalancer, 10, 150), sp(1, levelBackend, 50, 120), sp(1, levelEngine, 60, 115)), false},
		{"one good, one broken request", append(chain(1), chain(2)[:3]...), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := newRecorder()
			rec.spans = tc.spans
			sum := rec.summarize()
			if err := sum.err(); (err == nil) != tc.ok {
				t.Fatalf("summary %+v: err = %v, want ok=%v", sum, err, tc.ok)
			}
		})
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {100, 0.9}, {1000, 0.99}, {50000, 0.99}} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}
