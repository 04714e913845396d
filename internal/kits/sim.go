package kits

import (
	"math/big"

	"repro/internal/bits"
	"repro/internal/mmmc"
	"repro/internal/mont"
	"repro/internal/systolic"
)

// simCore is the Sim kit: every Montgomery product runs through the
// cycle-accurate MMM circuit of Fig. 3/4, which it owns exclusively
// (its registers are rewritten on every product).
type simCore struct {
	ctx     *mont.Ctx
	circuit *mmmc.Circuit
	nVec    bits.Vec
	cycles  int
}

func newSimCore(ctx *mont.Ctx, v systolic.Variant) (*simCore, error) {
	c, err := mmmc.New(ctx.L, v)
	if err != nil {
		return nil, err
	}
	return &simCore{ctx: ctx, circuit: c, nVec: bits.FromBig(ctx.N, ctx.L)}, nil
}

func (s *simCore) Mont(x, y *big.Int) (*big.Int, error) {
	if err := checkMont(s.ctx, x, y); err != nil {
		return nil, err
	}
	l := s.ctx.L
	res, cycles, err := s.circuit.Run(bits.FromBig(x, l+1), bits.FromBig(y, l+1), s.nVec)
	if err != nil {
		return nil, err
	}
	s.cycles += cycles
	return res.Big(), nil
}

// ModExp is the paper's Algorithm 3 with every product on the circuit:
// one pre-multiplication by R² mod N, a square per exponent bit below
// the MSB and a multiply per set bit, and Mont(A, 1) to leave the
// domain.
func (s *simCore) ModExp(m, e *big.Int) (*big.Int, error) {
	a, err := s.Mont(m, s.ctx.RR)
	if err != nil {
		return nil, err
	}
	mr := a
	for i := e.BitLen() - 2; i >= 0; i-- {
		if a, err = s.Mont(a, a); err != nil {
			return nil, err
		}
		if e.Bit(i) == 1 {
			if a, err = s.Mont(a, mr); err != nil {
				return nil, err
			}
		}
	}
	if a, err = s.Mont(a, big.NewInt(1)); err != nil {
		return nil, err
	}
	return s.ctx.Reduce(a), nil
}

func (s *simCore) Cycles() int { return s.cycles }
