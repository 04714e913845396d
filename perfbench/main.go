// Command perfbench is the fleet benchmark: it starts an in-process
// fleet (balancer + two engine-backed servers, see fleet.go), drives
// one workload through it over loopback for a fixed time, checks every
// answer, and prints the metrics.
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload twice, untraced then traced, for half the time
// each, and reports the per-layer breakdown, the tracing overhead and
// the kernel ladder. The last line of standard output is the JSON
// result; the lines before it are the human report.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name  string
	rate  float64 // open-loop mean arrivals per second
	pool  int     // generated requests the load cycles through
	gen   func(rng *rand.Rand, pool int) (*inputs, error)
	shape rungShape // kernel-ladder operand shape
}

// Both workloads are open loops well below the fleet's closed-loop
// capacity on the same inputs (about 15000/s and 5770/s with 2
// callers). Closed loops were tried: with both vCPUs of the shared host
// saturated, their timings followed the host's speed, and small-256's
// p50 spread 0.19 and 0.25 (interquartile range over median) over two
// sets of ten 45 s runs, against 0.05 and 0.13 for the open-loop
// verify-2048-cold in the same sets. At 3000/s, small-256 had requests
// refused at the 256-outstanding cap when the host stalled the process
// for ~100 ms; at 1000/s that takes a 256 ms stall. Closer to capacity
// (2800/s and 1500/s for verify) the p99 of runs minutes apart differed
// 2-3x as the host's speed pushed the fleet towards saturation.
const (
	smallRate  = 1000
	verifyRate = 1000
)

var workloads = []workload{
	{name: "small-256", rate: smallRate, pool: 4096, gen: genSmall256, shape: shapeF4(256)},
	{name: "verify-2048-cold", rate: verifyRate, pool: 8192, gen: genVerify2048Cold, shape: shapeF4(2048)},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one named value in the JSON result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run with the per-layer breakdown")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: small-256, verify-2048-cold)\n")
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	// Every request of the run carries this deadline to the backends'
	// engines; it only fires if the fleet stops answering.
	ctx, cancel := context.WithTimeout(context.Background(), dur+2*time.Minute)
	defer cancel()
	run := runPlain
	if *trace == 1 {
		run = runTraced
	}
	res, err := run(ctx, os.Stdout, w, *seed, dur)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// report accumulates the human report and the JSON metrics together,
// so every metric is printed with its unit and sample count.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

func newReport(w io.Writer) *report { return &report{w: w, metrics: map[string]metric{}} }

func (r *report) add(name string, v float64, unit string, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(r.w, "metric %-28s %14.4f %-6s%s\n", name, v, unit, note)
}

func (r *report) line(format string, args ...any) { fmt.Fprintf(r.w, format+"\n", args...) }

// genInputs builds the workload's inputs from seed.
func genInputs(w workload, seed int64) (*inputs, error) {
	return w.gen(rand.New(rand.NewSource(seed)), w.pool)
}

// warmUp sends every warm request once, from two callers, and checks
// the answers.
func warmUp(ctx context.Context, f *fleet, in *inputs) error {
	errc := make(chan error, 2)
	for c := 0; c < 2; c++ {
		go func(c int) {
			for i := c; i < len(in.warm); i += 2 {
				a, err := issue(ctx, f.client, &in.warm[i])
				if err == nil {
					err = check(&in.warm[i], a)
				}
				if err != nil {
					errc <- fmt.Errorf("warm-up %s: %w", in.warm[i].kind, err)
					return
				}
			}
			errc <- nil
		}(c)
	}
	return errors.Join(<-errc, <-errc)
}

// setupFleet builds a fleet and warms it; the returned duration is the
// benchmark's set-up time.
func setupFleet(ctx context.Context, in *inputs, rec *recorder) (*fleet, time.Duration, error) {
	t0 := time.Now()
	f, err := newFleet(rec)
	if err != nil {
		return nil, 0, err
	}
	if err := warmUp(ctx, f, in); err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, time.Since(t0), nil
}

// A plain run builds and warms the fleet at least setupMinReps times
// and until setupMinTime has passed (at most setupMaxReps times);
// setup_s is the median. A cheap set-up is repeated more often, so its
// median is as steady as an expensive one's.
const (
	setupMinReps = 7
	setupMaxReps = 31
	setupMinTime = 1500 * time.Millisecond
)

func runPlain(ctx context.Context, out io.Writer, w workload, seed int64, dur time.Duration) (result, error) {
	rep := newReport(out)
	stampEnv(rep, w, seed)
	in, err := genInputs(w, seed)
	if err != nil {
		return result{}, err
	}

	var setups []time.Duration
	var f *fleet
	for begin := time.Now(); len(setups) < setupMaxReps &&
		(len(setups) < setupMinReps || time.Since(begin) < setupMinTime); {
		if f != nil {
			f.Close()
		}
		var d time.Duration
		if f, d, err = setupFleet(ctx, in, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, d)
	}
	defer f.Close()

	m := measure(ctx, direct(f.client), in, w, dur, seed)
	res := m.judge(rep, in)
	m.e2e(rep, w)
	rep.add("retained_heap_mb", retainedHeapMB(m), "MB", "HeapInuse after two forced GCs, fleet alive")
	rep.add("setup_s", percentile(sortedDurations(setups), 0.5).Seconds(), "s",
		fmt.Sprintf("median of %d fleet builds + warm-ups", len(setups)))
	res.Metrics = rep.metrics
	return res, nil
}

// stampEnv prints the environment the numbers were measured in.
func stampEnv(rep *report, w workload, seed int64) {
	e := environment()
	rep.line("env cpu=%q nproc=%d gomaxprocs=%d go=%s git=%s", e.cpu, e.nproc, e.gomaxprocs, e.goVersion, e.gitSHA)
	rep.line("run workload=%s seed=%d kit=cios backends=%d loop=open-poisson target=%.0f/s pool=%d",
		w.name, seed, fleetBackends, w.rate, w.pool)
}
