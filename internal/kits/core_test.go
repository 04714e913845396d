package kits

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/errs"
	"repro/internal/mont"
	"repro/internal/systolic"
)

// Every concrete kit's Core computes Algorithm 2's residue and its
// ModExp, and rejects Mont operands outside [0, 2N) itself, so no
// caller can push an out-of-range value into a kit. Auto is a policy,
// not a kit, and builds no core.
func TestNewCore(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc07e))
	n := randOdd(rng, 96)
	ctx, err := mont.NewCtx(n)
	if err != nil {
		t.Fatal(err)
	}
	x := new(big.Int).Rand(rng, ctx.N2)
	y := new(big.Int).Rand(rng, ctx.N2)
	m := new(big.Int).Rand(rng, n)
	e := big.NewInt(0x1234567)
	for _, k := range []Kit{Model, Sim, CIOS, Big} {
		c, err := NewCore(ctx, k, systolic.Guarded)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		v, err := c.Mont(x, y)
		if err != nil {
			t.Fatalf("%s: Mont: %v", k, err)
		}
		if v.Cmp(ctx.N2) >= 0 || new(big.Int).Mod(v, n).Cmp(ctx.MulClosedForm(x, y)) != 0 {
			t.Errorf("%s: Mont = %#x, not x·y·2^-(l+2) mod N in [0, 2N)", k, v)
		}
		if got, err := c.ModExp(m, e); err != nil || got.Cmp(new(big.Int).Exp(m, e, n)) != 0 {
			t.Errorf("%s: ModExp = %v, %v", k, got, err)
		}
		if (c.Cycles() > 0) != (k == Sim) {
			t.Errorf("%s: %d simulated cycles", k, c.Cycles())
		}
		for _, bad := range []*big.Int{ctx.N2, big.NewInt(-1)} {
			if _, err := c.Mont(bad, y); !errors.Is(err, errs.ErrOperandRange) {
				t.Errorf("%s: Mont(%v, y): got %v, want ErrOperandRange", k, bad, err)
			}
			if _, err := c.Mont(x, bad); !errors.Is(err, errs.ErrOperandRange) {
				t.Errorf("%s: Mont(x, %v): got %v, want ErrOperandRange", k, bad, err)
			}
		}
	}
	if _, err := NewCore(ctx, Auto, systolic.Guarded); !errors.Is(err, errs.ErrOperandRange) {
		t.Errorf("NewCore(Auto): got %v, want ErrOperandRange", err)
	}
}
