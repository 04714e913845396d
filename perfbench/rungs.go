package main

// Kernel ladder rungs, timed directly (no wire, no balancer) on the
// operand shape that dominates each workload: math/big Exp as the
// reference, the radix-2^64 CIOS kernel, and the in-process engine.

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cryptosvc"
	"repro/internal/engine"
	"repro/internal/highradix"
	"repro/internal/kits"
	"repro/internal/mont"
)

var errWrongRung = errors.New("kernel ladder rung disagrees with math/big")

// rungShape is one modexp operand shape.
type rungShape struct {
	desc string
	gen  func(rng *rand.Rand) (n, base, exp *big.Int, err error)
}

// shapeF4 is an F4 exponentiation on a random odd modulus.
func shapeF4(bits int) rungShape {
	return rungShape{
		desc: "F4 on a random odd modulus",
		gen: func(rng *rand.Rand) (*big.Int, *big.Int, *big.Int, error) {
			n := randOdd(rng, bits)
			return n, randBelow(rng, n), f4, nil
		},
	}
}

// rungBudget bounds the time spent timing one rung, rungMaxReps its
// repetitions.
const (
	rungBudget  = 150 * time.Millisecond
	rungMaxReps = 20000
)

// timeRung runs fn repeatedly for about rungBudget (at least 5 times,
// at most rungMaxReps) and returns the median call time and the heap
// allocations per call (testing.AllocsPerRun: an exact count).
func timeRung(fn func() error) (median time.Duration, allocs float64, err error) {
	if err := fn(); err != nil { // warm caches and lazy precompute
		return 0, 0, err
	}
	allocs = testing.AllocsPerRun(5, func() { err = fn() })
	if err != nil {
		return 0, 0, err
	}
	ds := make([]time.Duration, 0, rungMaxReps)
	start := time.Now()
	for len(ds) < 5 || (time.Since(start) < rungBudget && len(ds) < rungMaxReps) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return percentile(sortedDurations(ds), 0.5), allocs, nil
}

type rungResult struct {
	bigExp, hrExp, engExp time.Duration
	hrAllocs              float64
}

// runRungs times the ladder on one operand set drawn from seed, and
// checks every rung's answer against math/big.
func runRungs(ctx context.Context, shape rungShape, seed int64) (rungResult, error) {
	var res rungResult
	n, base, exp, err := shape.gen(rand.New(rand.NewSource(seed)))
	if err != nil {
		return res, err
	}
	want := new(big.Int).Exp(base, exp, n)
	mismatch := func(got *big.Int) error {
		if got.Cmp(want) != 0 {
			return errWrongRung
		}
		return nil
	}

	if res.bigExp, _, err = timeRung(func() error {
		return mismatch(new(big.Int).Exp(base, exp, n))
	}); err != nil {
		return res, err
	}

	mctx, err := mont.NewCtx(n)
	if err != nil {
		return res, err
	}
	w := highradix.NewWord(mctx)
	if res.hrExp, res.hrAllocs, err = timeRung(func() error {
		v, err := w.ModExp(base, exp)
		if err != nil {
			return err
		}
		return mismatch(v)
	}); err != nil {
		return res, err
	}

	eng, err := engine.New(engine.WithKit(kits.CIOS), engine.WithCtxCacheSize(ctxCacheSize))
	if err != nil {
		return res, err
	}
	defer eng.Close()
	res.engExp, _, err = timeRung(func() error {
		v, _, err := eng.ModExp(ctx, n, base, exp)
		if err != nil {
			return err
		}
		return mismatch(v)
	})
	return res, err
}

// fieldMulRung times P-256 point doublings on the ecc package's field
// arithmetic and returns nanoseconds per field multiplication.
func fieldMulRung() (float64, error) {
	curve, err := cryptosvc.CurveByID(cryptosvc.CurveP256)
	if err != nil {
		return 0, err
	}
	pt, err := curve.Base()
	if err != nil {
		return 0, err
	}
	m0 := curve.FieldMulCount()
	start := time.Now()
	for time.Since(start) < rungBudget {
		pt = curve.Double(pt)
	}
	el := time.Since(start)
	return float64(el.Nanoseconds()) / float64(curve.FieldMulCount()-m0), nil
}
