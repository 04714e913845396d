package mont

import (
	"math/big"
	"math/rand"
	"testing"
)

// N0Inv is the only word-level parameter computed in uint64 arithmetic
// rather than math/big: n·inv ≡ −1 (mod 2^64) must hold for every odd
// low limb, including the extremes.
func TestNegInvMod64(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	ns := []uint64{1, 3, 5, 0xffffffffffffffff, 0x123456789abcdef1, 1<<63 | 1}
	for i := 0; i < 100; i++ {
		ns = append(ns, rng.Uint64()|1)
	}
	for _, n := range ns {
		inv := negInvMod64(n)
		if n*inv+1 != 0 {
			t.Errorf("negInvMod64(%#x): n·inv+1 = %#x, want 0", n, n*inv+1)
		}
	}
}

// WordParams at the limb boundaries: S = ⌈(l+2)/64⌉ steps between
// l = 64k−2 and 64k−1, R = 2^(64·S) clears Walter's bound 4N, and the
// limb renderings of N, R² mod N and N0Inv agree with math/big.
func TestWordParamsLimbBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for _, l := range []int{61, 62, 63, 64, 65, 125, 126, 127, 128, 129} {
		n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(l)))
		n.SetBit(n, l-1, 1).SetBit(n, 0, 1)
		ctx, err := NewCtx(n)
		if err != nil {
			t.Fatal(err)
		}
		p := ctx.Word()
		if want := (l + 2 + 63) / 64; p.S != want {
			t.Errorf("l=%d: S = %d, want %d", l, p.S, want)
		}
		if p.R.Cmp(new(big.Int).Lsh(n, 2)) <= 0 {
			t.Errorf("l=%d: R = 2^%d does not exceed 4N", l, 64*p.S)
		}
		if BigFromWords(p.N).Cmp(n) != 0 {
			t.Errorf("l=%d: N limbs do not round-trip", l)
		}
		rr := new(big.Int).Mul(p.R, p.R)
		if BigFromWords(p.RR).Cmp(rr.Mod(rr, n)) != 0 {
			t.Errorf("l=%d: RR limbs are not R² mod N", l)
		}
		np, err := NPrime(n, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got := new(big.Int).SetUint64(p.N0Inv); got.Cmp(np) != 0 {
			t.Errorf("l=%d: N0Inv = %#x, NPrime(N, 64) = %#x", l, got, np)
		}
	}
}

// The limb conversions round-trip every value that fits, on both sides
// of a limb edge, and zero-pad the top limbs.
func TestWordsRoundTrip(t *testing.T) {
	for _, hex := range []string{"0", "1", "ff", "ffffffffffffffff", "10000000000000000",
		"deadbeefcafebabe0123456789abcdef", "1ffffffffffffffffffffffffffffffff"} {
		x, _ := new(big.Int).SetString(hex, 16)
		s := (x.BitLen()+63)/64 + 1
		v := WordsFromBig(x, s)
		if len(v) != s || v[s-1] != 0 {
			t.Errorf("%s: %d limbs, top %#x", hex, len(v), v[len(v)-1])
		}
		if got := BigFromWords(v); got.Cmp(x) != 0 {
			t.Errorf("%s: WordsFromBig round trip got %s", hex, got.Text(16))
		}
		buf := []uint64{1, 2, 3, 4, 5, 6}[:s] // stale limbs must be cleared
		WordsSetBig(buf, x)
		if got := BigFromWords(buf); got.Cmp(x) != 0 {
			t.Errorf("%s: WordsSetBig round trip got %s", hex, got.Text(16))
		}
	}
}

// A value that does not fit, or a negative one, is a caller bug and
// panics rather than truncating silently.
func TestWordsOutOfRangePanics(t *testing.T) {
	cases := map[string]func(){
		"oversized WordsFromBig": func() { WordsFromBig(new(big.Int).Lsh(big.NewInt(1), 64), 1) },
		"negative WordsFromBig":  func() { WordsFromBig(big.NewInt(-1), 1) },
		"oversized WordsSetBig":  func() { WordsSetBig(make([]uint64, 1), new(big.Int).Lsh(big.NewInt(1), 64)) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
