package main

// Load generation: an open loop sends on a seeded Poisson schedule
// whatever the fleet's state, and times each request from the instant
// it was due, so a stall counts against every request it delays.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

// sample is one request's record. lag is how late the generator sent
// it behind its scheduled instant; done is when it was answered, as an
// offset from the start of the load.
type sample struct {
	req  int32
	lat  time.Duration
	lag  time.Duration
	done time.Duration
	ans  answer
	err  error
}

// maxOutstanding caps open-loop requests in flight; an arrival beyond
// it is refused (errRefused) and counted as failed.
const maxOutstanding = 256

var errRefused = errors.New("refused: open-loop outstanding cap reached")

// issuer sends one request; the traced run wraps issue with a client
// span.
type issuer func(ctx context.Context, r *request) (answer, error)

func direct(h server.SignHandler) issuer {
	return func(ctx context.Context, r *request) (answer, error) { return issue(ctx, h, r) }
}

// poissonSchedule returns arrival offsets in [0, dur) at mean rate.
func poissonSchedule(rate float64, dur time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var at []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return at
		}
		at = append(at, d)
	}
}

// runLoad drives reqs through send from start for dur at a mean rate
// per second and returns every sample and the whole window (start to
// last answer).
func runLoad(ctx context.Context, send issuer, reqs []request, rate float64, start time.Time, dur time.Duration, seed int64) ([]sample, time.Duration) {
	sched := poissonSchedule(rate, dur, seed)
	out := make([]sample, len(sched))
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		idx := i % len(reqs)
		select {
		case sem <- struct{}{}:
		default:
			out[i] = sample{req: int32(idx), lag: sent.Sub(due), done: sent.Sub(start), err: errRefused}
			continue
		}
		wg.Add(1)
		go func(i, idx int, due, sent time.Time) {
			defer wg.Done()
			a, err := send(ctx, &reqs[idx])
			done := time.Now()
			out[i] = sample{req: int32(idx), lat: done.Sub(due), lag: sent.Sub(due),
				done: done.Sub(start), ans: a, err: err}
			<-sem
		}(i, idx, due, sent)
	}
	wg.Wait()
	return out, time.Since(start)
}

// percentile returns the nearest-rank q-quantile of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailQuantile is the highest quantile, up to p99, that leaves at
// least 10 of n samples beyond it.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

func sortedDurations(ds []time.Duration) []time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}
