package main

// Issuing a generated request and judging its answer. The oracle runs
// after the timed window, on answers kept from it, and trusts only
// math/big.

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/server"
)

// answer is what the fleet returned for one request.
type answer struct {
	v  *big.Int // mont/modexp value
	ok bool     // verify_rsa verdict
}

// issue sends r through h — the wire client in a run, anything
// implementing the signing surface in tests.
func issue(ctx context.Context, h server.SignHandler, r *request) (answer, error) {
	var a answer
	var err error
	switch r.kind {
	case opMont:
		a.v, err = h.Mont(ctx, r.n, r.x, r.y)
	case opModExp:
		a.v, err = h.ModExp(ctx, r.n, r.x, r.y)
	case opVerifyRSA:
		a.ok, err = h.VerifyRSA(ctx, r.n, r.e, r.digest, r.sig)
	default:
		err = fmt.Errorf("unknown op %d", r.kind)
	}
	return a, err
}

// check returns nil when a is the right answer to r.
func check(r *request, a answer) error {
	switch r.kind {
	case opMont:
		// T < 2N and T·2^(l+2) ≡ x·y (mod N), l = bit length of N.
		if a.v == nil || a.v.Sign() < 0 || a.v.Cmp(new(big.Int).Lsh(r.n, 1)) >= 0 {
			return fmt.Errorf("mont: result %v outside [0, 2N)", a.v)
		}
		lhs := new(big.Int).Lsh(a.v, uint(r.n.BitLen()+2))
		lhs.Mod(lhs, r.n)
		rhs := new(big.Int).Mul(r.x, r.y)
		if rhs.Mod(rhs, r.n).Cmp(lhs) != 0 {
			return fmt.Errorf("mont: T·R ≢ x·y (mod N)")
		}
	case opModExp:
		if a.v == nil || a.v.Cmp(r.want) != 0 {
			return fmt.Errorf("modexp: got %v, math/big says %v", a.v, r.want)
		}
	case opVerifyRSA:
		if a.ok != r.wantGood {
			return fmt.Errorf("verify_rsa: verdict %v, want %v", a.ok, r.wantGood)
		}
	default:
		return fmt.Errorf("unknown op %d", r.kind)
	}
	return nil
}
