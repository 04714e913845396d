// Package expo implements the paper's modular exponentiator (§4.5):
// left-to-right square-and-multiply (Algorithm 3) where every
// multiplication is a Montgomery multiplication, with the paper's exact
// cycle accounting —
//
//	pre-processing  (M·R² and the R² constant)   5l + 10 cycles
//	each square or multiply                       3l + 4  cycles
//	post-processing (Mont(A, 1))                  l + 2   cycles
//
// giving Eq. (10):  3l² + 10l + 12 ≤ T_modexp ≤ 6l² + 14l + 12.
//
// The multiplications run on one compute kit (internal/kits): Sim
// pushes every product through the cycle-accurate MMMC (internal/mmmc)
// — the ground truth, at simulation cost O(l²) per product — while
// Model, CIOS and Big compute the same values at host speed. The Report
// keeps the paper's accounting on every kit; conformance tests pin the
// kits to identical results and identical square/multiply counts, so
// the fast kits are safe for the large bit lengths of Tables 1 and 2.
package expo

import (
	"fmt"
	"math/big"
	mathbits "math/bits"

	"repro/internal/errs"
	"repro/internal/kits"
	"repro/internal/mont"
	"repro/internal/systolic"
)

// Report describes one modular exponentiation's decomposition and cycle
// cost.
type Report struct {
	L          int
	Squares    int // squarings (one per exponent bit below the MSB)
	Multiplies int // conditional multiplies (one per set bit below the MSB)

	// Paper-model cycle accounting (§4.5).
	PreCycles   int // 5l + 10
	MulCycles   int // (Squares + Multiplies) · (3l + 4)
	PostCycles  int // l + 2
	TotalCycles int // sum of the above

	// SimulatedMulCycles counts the MUL1/MUL2 clock cycles actually
	// spent inside the simulated MMMC (Sim kit only; 0 on the others).
	// Each multiplication measures exactly 3l+4, so this equals
	// (Squares+Multiplies+2)·(3l+4) — the +2 being the explicit pre- and
	// post-multiplications.
	SimulatedMulCycles int
}

// PaperLowerBound returns 3l²+10l+12, Eq. (10)'s minimum (single-bit
// exponent of length l under the paper's l-square convention).
func PaperLowerBound(l int) int { return 3*l*l + 10*l + 12 }

// PaperUpperBound returns 6l²+14l+12, Eq. (10)'s maximum (all-ones
// exponent).
func PaperUpperBound(l int) int { return 6*l*l + 14*l + 12 }

// PaperAverageCycles returns the midpoint of Eq. (10), 4.5l²+12l+12 —
// the balanced-Hamming-weight average behind Table 1.
func PaperAverageCycles(l int) float64 {
	return 4.5*float64(l)*float64(l) + 12*float64(l) + 12
}

// Exponentiator computes modular exponentiations over one modulus.
type Exponentiator struct {
	L   int
	Kit kits.Kit // the concrete compute kit executing multiplications

	ctx  *mont.Ctx
	core kits.Core
}

// Option configures an Exponentiator beyond its kit.
type Option func(*config)

type config struct {
	variant systolic.Variant
}

// WithArrayVariant selects the array variant used by the Sim kit. The
// default is Guarded, whose correctness holds for every chained operand
// (see internal/systolic); the paper's cycle counts are unaffected by
// the guard.
func WithArrayVariant(v systolic.Variant) Option { return func(c *config) { c.variant = v } }

// NewKit builds an exponentiator on the given compute kit for the odd
// modulus n.
func NewKit(n *big.Int, k kits.Kit, opts ...Option) (*Exponentiator, error) {
	ctx, err := mont.NewCtx(n)
	if err != nil {
		return nil, err
	}
	return NewKitFromCtx(ctx, k, opts...)
}

// NewKitFromCtx builds an exponentiator on the given compute kit over an
// existing context, skipping the per-modulus precomputation. The Ctx is
// immutable and may be shared freely; the Exponentiator itself (whose
// Sim circuit and CIOS scratch are mutable state) must stay confined to
// one goroutine. The kit must be concrete: callers wanting Auto resolve
// it first (internal/core and internal/engine do this through
// kits.ProcessTable / their pinned table).
func NewKitFromCtx(ctx *mont.Ctx, k kits.Kit, opts ...Option) (*Exponentiator, error) {
	cfg := config{variant: systolic.Guarded}
	for _, o := range opts {
		o(&cfg)
	}
	c, err := kits.NewCore(ctx, k, cfg.variant)
	if err != nil {
		return nil, err
	}
	return NewFromCore(ctx, k, c), nil
}

// NewFromCore builds an exponentiator over an existing core c of kit k
// for ctx's modulus. The exponentiator computes through c, so it shares
// c's goroutine confinement; the engine's workers use this to answer
// both job shapes of one (kit, modulus) with one core.
func NewFromCore(ctx *mont.Ctx, k kits.Kit, c kits.Core) *Exponentiator {
	return &Exponentiator{L: ctx.L, Kit: k, ctx: ctx, core: c}
}

// Ctx exposes the Montgomery context (for benchmarks and applications).
func (e *Exponentiator) Ctx() *mont.Ctx { return e.ctx }

// check validates ModExp-style arguments: a positive exponent and a
// base in [0, N-1].
func (e *Exponentiator) check(m, exp *big.Int) error {
	if exp.Sign() <= 0 {
		return fmt.Errorf("expo: exponent must be positive: %w", errs.ErrOperandRange)
	}
	if m.Sign() < 0 || m.Cmp(e.ctx.N) >= 0 {
		return fmt.Errorf("expo: base must be in [0, N-1]: %w", errs.ErrOperandRange)
	}
	return nil
}

// ModExp computes m^exp mod N via Algorithm 3 on the exponentiator's
// kit. m must lie in [0, N-1]; exp must be positive.
//
// Each kit runs the ladder its own way (Model and Sim: Algorithm 3
// product by product; CIOS: in the word domain; Big: math/big's own
// windowed exponentiation). The Report keeps the paper's accounting
// either way: the binary ladder's squares and multiplies are a function
// of the exponent alone (one square per bit below the MSB, one multiply
// per set bit below the MSB), so the decomposition and cycle model are
// identical across kits.
func (e *Exponentiator) ModExp(m, exp *big.Int) (*big.Int, Report, error) {
	rep := Report{L: e.L}
	if err := e.check(m, exp); err != nil {
		return nil, rep, err
	}
	before := e.core.Cycles()
	a, err := e.core.ModExp(m, exp)
	if err != nil {
		return nil, rep, err
	}
	pop := 0
	for _, w := range exp.Bits() {
		pop += mathbits.OnesCount(uint(w))
	}
	rep.Squares = exp.BitLen() - 1
	rep.Multiplies = pop - 1
	rep.SimulatedMulCycles = e.core.Cycles() - before
	rep.account(0)
	return a, rep, nil
}

// account fills the §4.5 cycle model from the square and multiply
// counts: pre-processing (plus tableMuls further pre-products at 3l+4
// each, for methods that precompute powers), 3l+4 per square or
// multiply, and post-processing.
func (r *Report) account(tableMuls int) {
	l := r.L
	r.PreCycles = 5*l + 10 + tableMuls*(3*l+4)
	r.MulCycles = (r.Squares + r.Multiplies) * (3*l + 4)
	r.PostCycles = l + 2
	r.TotalCycles = r.PreCycles + r.MulCycles + r.PostCycles
}
