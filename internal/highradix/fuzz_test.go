package highradix

import (
	"math/big"
	"testing"

	"repro/internal/mont"
)

// FuzzWordMul differentially checks the radix-2^64 kernel against
// math/big on arbitrary odd moduli up to 1024 bits:
//
//   - MulInto: out < 2N and out·R ≡ a·b (mod N), R = 2^(64·S)
//   - Mont: ≡ x·y·2^-(l+2) (mod N), the paper's Algorithm 2
//   - ModExp: equal to big.Int.Exp
//
// The seed corpus sits on the limb boundaries l = 64k−2 … 64k+1 for
// k = 1, 2: all-ones moduli with the largest operands (2N−1) and an
// all-ones exponent, and with small operands and F4. Run with
// `go test -fuzz FuzzWordMul ./internal/highradix` for an open-ended
// search; the seeds run under plain `go test`.
func FuzzWordMul(f *testing.F) {
	for _, l := range limbBoundarySizes {
		n := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(l)), big.NewInt(1))
		top := new(big.Int).Sub(new(big.Int).Lsh(n, 1), big.NewInt(1)) // 2N−1
		f.Add(n.Bytes(), top.Bytes(), top.Bytes(), n.Bytes())
		f.Add(n.Bytes(), n.Bytes(), []byte{0x02}, []byte{0x01, 0x00, 0x01})
	}
	f.Fuzz(func(t *testing.T, nb, xb, yb, eb []byte) {
		n := new(big.Int).SetBytes(nb)
		n.SetBit(n, 0, 1) // force odd
		if n.Cmp(big.NewInt(3)) < 0 || n.BitLen() > 1024 || len(eb) > 32 {
			t.Skip()
		}
		ctx, err := mont.NewCtx(n)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWord(ctx)
		p := w.Params()
		x := new(big.Int).SetBytes(xb)
		x.Mod(x, ctx.N2)
		y := new(big.Int).SetBytes(yb)
		y.Mod(y, ctx.N2)

		out := make([]uint64, p.S)
		w.MulInto(out, mont.WordsFromBig(x, p.S), mont.WordsFromBig(y, p.S))
		got := mont.BigFromWords(out)
		if got.Cmp(ctx.N2) >= 0 {
			t.Fatalf("MulInto output ≥ 2N: N=%#x x=%#x y=%#x", n, x, y)
		}
		lhs := new(big.Int).Mul(got, p.R)
		rhs := new(big.Int).Mul(x, y)
		if lhs.Sub(lhs, rhs).Mod(lhs, n).Sign() != 0 {
			t.Fatalf("MulInto: out·R ≢ a·b (mod N): N=%#x x=%#x y=%#x", n, x, y)
		}

		m, err := w.Mont(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if m.Mod(m, n).Cmp(ctx.MulClosedForm(x, y)) != 0 {
			t.Fatalf("Mont ≢ x·y·2^-(l+2) (mod N): N=%#x x=%#x y=%#x", n, x, y)
		}

		e := new(big.Int).SetBytes(eb)
		if e.Sign() == 0 {
			e.SetInt64(1)
		}
		base := new(big.Int).Mod(x, n)
		v, err := w.ModExp(base, e)
		if err != nil {
			t.Fatal(err)
		}
		if want := new(big.Int).Exp(base, e, n); v.Cmp(want) != 0 {
			t.Fatalf("ModExp: got %#x want %#x: N=%#x m=%#x e=%#x", v, want, n, base, e)
		}
	})
}
