package kits

import (
	"math/big"

	"repro/internal/mont"
)

// modelCore is the Model kit: the paper's radix-2 Algorithm 2 and
// Algorithm 3 over math/big (mont.Ctx), bit-exact with the hardware.
type modelCore struct{ ctx *mont.Ctx }

func (c modelCore) Mont(x, y *big.Int) (*big.Int, error) {
	if err := checkMont(c.ctx, x, y); err != nil {
		return nil, err
	}
	return c.ctx.Mul(x, y), nil
}

func (c modelCore) ModExp(m, e *big.Int) (*big.Int, error) {
	v, _, err := c.ctx.Exp(m, e)
	return v, err
}

func (modelCore) Cycles() int { return 0 }
