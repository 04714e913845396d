package highradix

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/errs"
	"repro/internal/mont"
)

// limbBoundarySizes puts modulus lengths on both sides of the first two
// limb steps: S = ⌈(l+2)/64⌉ steps from 1 to 2 limbs between l = 62
// and 63, and from 2 to 3 between 126 and 127 (l = 64k−2 … 64k+1).
var limbBoundarySizes = []int{62, 63, 64, 65, 126, 127, 128, 129}

// The word-level CIOS loop vs math/big, across the limb boundaries and
// the bit lengths the serving stack actually handles, with the
// no-subtraction output bound held at every step.
func TestWordMulMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	for _, l := range append(limbBoundarySizes, 61, 256, 512, 1024, 2048) {
		n := randOdd(rng, l)
		ctx, err := mont.NewCtx(n)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWord(ctx)
		p := w.Params()
		if 64*p.S < l+2 {
			t.Fatalf("l=%d: S=%d violates 64·S ≥ l+2", l, p.S)
		}
		rinv := new(big.Int).ModInverse(p.R, n)
		a := make([]uint64, p.S)
		b := make([]uint64, p.S)
		out := make([]uint64, p.S)
		for trial := 0; trial < 25; trial++ {
			x := new(big.Int).Rand(rng, p.N2)
			y := new(big.Int).Rand(rng, p.N2)
			mont.WordsSetBig(a, x)
			mont.WordsSetBig(b, y)
			w.MulInto(out, a, b)
			got := mont.BigFromWords(out)
			if got.Cmp(p.N2) >= 0 {
				t.Fatalf("l=%d: output ≥ 2N", l)
			}
			want := new(big.Int).Mul(x, y)
			want.Mul(want, rinv).Mod(want, n)
			if new(big.Int).Mod(got, n).Cmp(want) != 0 {
				t.Fatalf("l=%d: word Mul wrong", l)
			}
		}
	}
}

// MulInto must tolerate out aliasing an input — the exponentiation
// ladder feeds results straight back in.
func TestWordMulAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	n := randOdd(rng, 256)
	ctx, _ := mont.NewCtx(n)
	w := NewWord(ctx)
	p := w.Params()
	a := make([]uint64, p.S)
	b := make([]uint64, p.S)
	want := make([]uint64, p.S)
	x := new(big.Int).Rand(rng, p.N2)
	y := new(big.Int).Rand(rng, p.N2)
	mont.WordsSetBig(a, x)
	mont.WordsSetBig(b, y)
	w.MulInto(want, a, b)

	got := make([]uint64, p.S)
	copy(got, a)
	w.MulInto(got, got, b) // out aliases a
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("aliased MulInto diverges")
		}
	}
	copy(got, a)
	w.MulInto(got, b, got) // out aliases b
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("aliased MulInto diverges (second operand)")
		}
	}
}

// The quotient witness must satisfy T·R = x·y + M·N exactly over ℤ —
// the identity internal/integrity verifies in a residue system.
func TestWordMulWitnessIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(603))
	for _, l := range []int{128, 521, 1024} {
		n := randOdd(rng, l)
		ctx, _ := mont.NewCtx(n)
		w := NewWord(ctx)
		p := w.Params()
		for trial := 0; trial < 10; trial++ {
			x := new(big.Int).Rand(rng, p.N2)
			y := new(big.Int).Rand(rng, p.N2)
			tt, m, err := w.MulWitness(x, y)
			if err != nil {
				t.Fatal(err)
			}
			lhs := new(big.Int).Mul(tt, p.R)
			rhs := new(big.Int).Mul(x, y)
			rhs.Add(rhs, new(big.Int).Mul(m, n))
			if lhs.Cmp(rhs) != 0 {
				t.Fatalf("l=%d: witness identity T·R = x·y + M·N fails", l)
			}
		}
	}
}

// Mont must preserve the paper's R = 2^(l+2) semantics (mod N) so the
// high-radix kit is a drop-in for the radix-2 path on the wire.
func TestWordMontPaperSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(604))
	for _, l := range append(limbBoundarySizes, 61, 256, 1024) {
		n := randOdd(rng, l)
		ctx, _ := mont.NewCtx(n)
		w := NewWord(ctx)
		for trial := 0; trial < 15; trial++ {
			x := new(big.Int).Rand(rng, ctx.N2)
			y := new(big.Int).Rand(rng, ctx.N2)
			got, err := w.Mont(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if got.Sign() < 0 || got.Cmp(ctx.N2) >= 0 {
				t.Fatalf("l=%d: Mont output outside [0, 2N)", l)
			}
			want := ctx.MulClosedForm(x, y)
			if new(big.Int).Mod(got, n).Cmp(want) != 0 {
				t.Fatalf("l=%d: Mont ≢ x·y·R⁻¹ (mod N)", l)
			}
		}
	}
	// Range validation surfaces the typed sentinel.
	n := randOdd(rng, 64)
	ctx, _ := mont.NewCtx(n)
	w := NewWord(ctx)
	if _, err := w.Mont(ctx.N2, big.NewInt(1)); !errors.Is(err, errs.ErrOperandRange) {
		t.Errorf("Mont(2N, 1): got %v, want ErrOperandRange", err)
	}
}

func TestWordModExp(t *testing.T) {
	rng := rand.New(rand.NewSource(605))
	for _, l := range append(limbBoundarySizes, 61, 256, 1024, 2048) {
		n := randOdd(rng, l)
		ctx, _ := mont.NewCtx(n)
		w := NewWord(ctx)
		for trial := 0; trial < 5; trial++ {
			m := new(big.Int).Rand(rng, n)
			e := new(big.Int).Rand(rng, n)
			if e.Sign() == 0 {
				e.SetInt64(3)
			}
			got, err := w.ModExp(m, e)
			if err != nil {
				t.Fatal(err)
			}
			if want := new(big.Int).Exp(m, e, n); got.Cmp(want) != 0 {
				t.Fatalf("l=%d: word ModExp wrong", l)
			}
		}
	}
	n := randOdd(rng, 64)
	ctx, _ := mont.NewCtx(n)
	w := NewWord(ctx)
	if _, err := w.ModExp(big.NewInt(5), big.NewInt(0)); !errors.Is(err, errs.ErrOperandRange) {
		t.Errorf("zero exponent: got %v, want ErrOperandRange", err)
	}
	if _, err := w.ModExp(n, big.NewInt(3)); !errors.Is(err, errs.ErrOperandRange) {
		t.Errorf("base = N: got %v, want ErrOperandRange", err)
	}
}

// The word-slice hot loop must not allocate — this is the gate CI's
// benchmark-regression job runs.
func TestMulIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	n := randOdd(rng, 1024)
	ctx, _ := mont.NewCtx(n)
	w := NewWord(ctx)
	p := w.Params()
	a := make([]uint64, p.S)
	b := make([]uint64, p.S)
	out := make([]uint64, p.S)
	mont.WordsSetBig(a, new(big.Int).Rand(rng, p.N2))
	mont.WordsSetBig(b, new(big.Int).Rand(rng, p.N2))
	if avg := testing.AllocsPerRun(100, func() { w.MulInto(out, a, b) }); avg != 0 {
		t.Errorf("MulInto allocates %.1f objects/op, want 0", avg)
	}
	wit := make([]uint64, p.S)
	if avg := testing.AllocsPerRun(100, func() { w.MulWitnessInto(out, wit, a, b) }); avg != 0 {
		t.Errorf("MulWitnessInto allocates %.1f objects/op, want 0", avg)
	}
}

func benchWord(bits int) (*Word, []uint64, []uint64, []uint64) {
	rng := rand.New(rand.NewSource(int64(bits)))
	n := randOdd(rng, bits)
	ctx, err := mont.NewCtx(n)
	if err != nil {
		panic(err)
	}
	w := NewWord(ctx)
	p := w.Params()
	a := make([]uint64, p.S)
	b := make([]uint64, p.S)
	out := make([]uint64, p.S)
	mont.WordsSetBig(a, new(big.Int).Rand(rng, p.N2))
	mont.WordsSetBig(b, new(big.Int).Rand(rng, p.N2))
	return w, a, b, out
}

func BenchmarkWordMul1024(b *testing.B) {
	w, x, y, out := benchWord(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.MulInto(out, x, y)
	}
}

func BenchmarkWordMul2048(b *testing.B) {
	w, x, y, out := benchWord(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.MulInto(out, x, y)
	}
}

func benchModExp(b *testing.B, bits int) {
	rng := rand.New(rand.NewSource(int64(bits)))
	n := randOdd(rng, bits)
	ctx, err := mont.NewCtx(n)
	if err != nil {
		b.Fatal(err)
	}
	w := NewWord(ctx)
	m := new(big.Int).Rand(rng, n)
	e := new(big.Int).Rand(rng, n)
	if e.Sign() == 0 {
		e.SetInt64(3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.ModExp(m, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWordModExp1024(b *testing.B) { benchModExp(b, 1024) }
func BenchmarkWordModExp2048(b *testing.B) { benchModExp(b, 2048) }
