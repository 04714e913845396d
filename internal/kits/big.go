package kits

import (
	"math/big"

	"repro/internal/mont"
)

// bigCore is the Big kit: math/big's own modular arithmetic, the
// oracle backend. Its Mont is the closed form x·y·R⁻¹ mod N.
type bigCore struct{ ctx *mont.Ctx }

func (c bigCore) Mont(x, y *big.Int) (*big.Int, error) {
	if err := checkMont(c.ctx, x, y); err != nil {
		return nil, err
	}
	return c.ctx.MulClosedForm(x, y), nil
}

func (c bigCore) ModExp(m, e *big.Int) (*big.Int, error) {
	return new(big.Int).Exp(m, e, c.ctx.N), nil
}

func (bigCore) Cycles() int { return 0 }
