package core

import (
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/errs"
	"repro/internal/kits"
	"repro/internal/mont"
	"repro/internal/systolic"
)

func randOdd(rng *rand.Rand, l int) *big.Int {
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(l-1)))
	n.SetBit(n, l-1, 1)
	n.SetBit(n, 0, 1)
	return n
}

func TestNewMultiplierValidation(t *testing.T) {
	if _, err := NewMultiplier(big.NewInt(4)); err == nil {
		t.Error("even modulus accepted")
	}
	m, err := NewMultiplier(big.NewInt(101))
	if err != nil {
		t.Fatal(err)
	}
	if m.L() != 7 || m.Simulated() || m.CyclesPerMont() != 25 {
		t.Errorf("L=%d sim=%v cycles=%d", m.L(), m.Simulated(), m.CyclesPerMont())
	}
	if m.N().Int64() != 101 || m.R().Int64() != 512 {
		t.Error("N/R accessors wrong")
	}
	if m.Ctx() == nil {
		t.Error("Ctx nil")
	}
}

// Model and simulation modes must agree on Montgomery products, and the
// simulated mode must account 3l+4 cycles per product.
func TestMontModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	n := randOdd(rng, 16)
	model, err := NewMultiplier(n)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewMultiplier(n, WithKit(kits.Sim))
	if err != nil {
		t.Fatal(err)
	}
	n2 := new(big.Int).Lsh(n, 1)
	for trial := 0; trial < 10; trial++ {
		x := new(big.Int).Rand(rng, n2)
		y := new(big.Int).Rand(rng, n2)
		a, err := model.Mont(x, y)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sim.Mont(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cmp(b) != 0 {
			t.Fatalf("modes disagree: %s vs %s", a, b)
		}
	}
	if sim.Muls != 10 || sim.Cycles != 10*sim.CyclesPerMont() {
		t.Errorf("accounting: muls=%d cycles=%d", sim.Muls, sim.Cycles)
	}
	if _, err := model.Mont(n2, big.NewInt(1)); err == nil {
		t.Error("operand 2N accepted")
	}
}

func TestMulModMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	n := randOdd(rng, 24)
	m, _ := NewMultiplier(n)
	for trial := 0; trial < 20; trial++ {
		x := new(big.Int).Rand(rng, n)
		y := new(big.Int).Rand(rng, n)
		got, err := m.MulMod(x, y)
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).Mul(x, y)
		want.Mod(want, n)
		if got.Cmp(want) != 0 {
			t.Fatalf("MulMod wrong")
		}
	}
	if _, err := m.MulMod(n, big.NewInt(1)); err == nil {
		t.Error("MulMod operand N accepted")
	}
}

func TestDomainConversions(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	n := randOdd(rng, 20)
	m, _ := NewMultiplier(n, WithKit(kits.Sim), WithArrayVariant(systolic.Guarded))
	for trial := 0; trial < 5; trial++ {
		x := new(big.Int).Rand(rng, n)
		xm, err := m.ToMont(x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := m.FromMont(xm)
		if err != nil {
			t.Fatal(err)
		}
		if back.Cmp(x) != 0 {
			t.Fatal("domain round trip failed")
		}
	}
}

func TestNewExponentiator(t *testing.T) {
	n := big.NewInt(101)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"model", nil},
		{"simulate", []Option{WithKit(kits.Sim)}},
		{"simulate-faithful", []Option{WithKit(kits.Sim), WithArrayVariant(systolic.Faithful)}},
		{"cios", []Option{WithKit(kits.CIOS)}},
		{"big", []Option{WithKit(kits.Big)}},
		{"auto", []Option{WithKitAuto()}},
	} {
		ex, err := NewExponentiator(n, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ex.ModExp(big.NewInt(5), big.NewInt(13))
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).Exp(big.NewInt(5), big.NewInt(13), n)
		if got.Cmp(want) != 0 {
			t.Fatalf("%s: exponentiation wrong", tc.name)
		}
	}
	if ex, _ := NewExponentiator(n, WithKit(kits.Sim)); ex.Kit != kits.Sim {
		t.Error("WithKit(kits.Sim) did not select the Sim kit")
	}
	if ex, _ := NewExponentiator(n, WithKit(kits.CIOS)); ex.Kit != kits.CIOS {
		t.Error("WithKit(kits.CIOS) not threaded through")
	}
}

func TestSentinelErrors(t *testing.T) {
	if _, err := NewMultiplier(big.NewInt(4)); !errors.Is(err, errs.ErrEvenModulus) {
		t.Errorf("even modulus: got %v", err)
	}
	if _, err := NewMultiplier(big.NewInt(1)); !errors.Is(err, errs.ErrModulusTooSmall) {
		t.Errorf("small modulus: got %v", err)
	}
	m, err := NewMultiplier(big.NewInt(101))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mont(big.NewInt(-1), big.NewInt(1)); !errors.Is(err, errs.ErrOperandRange) {
		t.Errorf("Mont range: got %v", err)
	}
	if _, err := m.MulMod(big.NewInt(101), big.NewInt(1)); !errors.Is(err, errs.ErrOperandRange) {
		t.Errorf("MulMod range: got %v", err)
	}
	ex, err := NewExponentiator(big.NewInt(101))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ex.ModExp(big.NewInt(5), big.NewInt(0)); !errors.Is(err, errs.ErrOperandRange) {
		t.Errorf("zero exponent: got %v", err)
	}
}

// TestMultiplierExclusivePerGoroutine enforces the documented usage
// rule for concurrent code: a Multiplier (whose Muls/Cycles counters
// and simulated circuit are mutable) must be confined to one goroutine,
// while the mont.Ctx beneath it is immutable and may be shared. Run
// under -race, this test proves the per-goroutine-multiplier /
// shared-ctx arrangement — the one internal/engine uses for its worker
// cores — is race-free; sharing one simulated Multiplier instead would
// trip the detector (and corrupt circuit registers).
func TestMultiplierExclusivePerGoroutine(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := randOdd(rng, 24)
	shared, err := mont.NewCtx(n)
	if err != nil {
		t.Fatal(err)
	}
	n2 := new(big.Int).Lsh(n, 1)

	const goroutines = 4
	const products = 8
	type opnd struct{ x, y *big.Int }
	inputs := make([][]opnd, goroutines)
	for g := range inputs {
		inputs[g] = make([]opnd, products)
		for i := range inputs[g] {
			inputs[g][i] = opnd{new(big.Int).Rand(rng, n2), new(big.Int).Rand(rng, n2)}
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Exclusive simulated multiplier over the shared context.
			m, err := NewMultiplierFromCtx(shared, WithKit(kits.Sim))
			if err != nil {
				errCh <- err
				return
			}
			for _, in := range inputs[g] {
				got, err := m.Mont(in.x, in.y)
				if err != nil {
					errCh <- err
					return
				}
				if want := shared.Mul(in.x, in.y); got.Cmp(want) != 0 {
					errCh <- errors.New("concurrent product corrupted")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestHardwareReport(t *testing.T) {
	rep, err := Hardware(32)
	if err != nil {
		t.Fatal(err)
	}
	if rep.L != 32 || rep.CyclesPerMul != 100 {
		t.Errorf("report basics: %+v", rep)
	}
	if rep.Mapping.Slices == 0 || rep.Gates.TotalGates() == 0 {
		t.Error("empty mapping/census")
	}
	if rep.TMMMUs <= 0 {
		t.Error("TMMM not positive")
	}
	if _, err := Hardware(1); err == nil {
		t.Error("l=1 accepted")
	}
}
