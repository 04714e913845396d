package kits

import (
	"fmt"
	"math/big"

	"repro/internal/errs"
	"repro/internal/highradix"
	"repro/internal/mont"
	"repro/internal/systolic"
)

// Core is one compute kit bound to one modulus: the single surface the
// multiplier (internal/core), the exponentiator (internal/expo) and the
// engine's worker cores compute through. Every kit computes the same
// residues; kits differ only in speed and in what they account.
//
// A Core may own mutable state (the Sim circuit, the CIOS limb
// scratch), so it is confined to one goroutine; the *mont.Ctx beneath
// it is immutable and shared.
type Core interface {
	// Mont returns x·y·2^-(l+2) mod N as a value in [0, 2N): the paper's
	// Algorithm 2. Kits may land on either representative of the class.
	// Operands outside [0, 2N) fail with errs.ErrOperandRange.
	Mont(x, y *big.Int) (*big.Int, error)
	// ModExp returns m^e mod N, canonical in [0, N). The caller
	// validates m in [0, N) and e > 0 (internal/expo does, once).
	ModExp(m, e *big.Int) (*big.Int, error)
	// Cycles returns the clock cycles the simulated circuit has spent so
	// far: the measured MUL1/MUL2 states on the Sim kit, 0 on the others.
	Cycles() int
}

// NewCore builds kit k over ctx; v selects the Sim kit's array variant
// and is ignored by the other kits. This is the one place a Kit value
// maps to an implementation. k must be concrete: Auto is a selection
// policy, resolved by the caller before any core is built.
func NewCore(ctx *mont.Ctx, k Kit, v systolic.Variant) (Core, error) {
	switch k {
	case Model:
		return modelCore{ctx}, nil
	case Sim:
		return newSimCore(ctx, v)
	case CIOS:
		return ciosCore{highradix.NewWord(ctx)}, nil
	case Big:
		return bigCore{ctx}, nil
	}
	return nil, fmt.Errorf("kits: %v is not a concrete compute kit: %w", k, errs.ErrOperandRange)
}

// checkMont rejects Mont operands outside [0, 2N-1], the input range of
// Algorithm 2.
func checkMont(ctx *mont.Ctx, x, y *big.Int) error {
	if x.Sign() < 0 || x.Cmp(ctx.N2) >= 0 || y.Sign() < 0 || y.Cmp(ctx.N2) >= 0 {
		return fmt.Errorf("kits: Mont operands must be in [0, 2N-1]: %w", errs.ErrOperandRange)
	}
	return nil
}
