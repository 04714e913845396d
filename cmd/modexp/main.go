// Command modexp computes a modular exponentiation M^E mod N through the
// paper's exponentiator and prints the square-and-multiply decomposition
// and the cycle accounting of §4.5 / Eq. (10).
//
// Usage:
//
//	modexp -n <hex modulus> -m <hex base> -e <hex exponent> [-simulate]
package main

import (
	"flag"
	"fmt"
	"math/big"
	"os"

	"repro/internal/expo"
	"repro/internal/kits"
)

func main() {
	nHex := flag.String("n", "f1f1", "modulus N (hex, odd)")
	mHex := flag.String("m", "1234", "base M (hex, < N)")
	eHex := flag.String("e", "10001", "exponent E (hex, > 0)")
	simulate := flag.Bool("simulate", false, "run every multiplication through the cycle-accurate circuit")
	flag.Parse()

	if err := run(*nHex, *mHex, *eHex, *simulate); err != nil {
		fmt.Fprintln(os.Stderr, "modexp:", err)
		os.Exit(1)
	}
}

func run(nHex, mHex, eHex string, simulate bool) error {
	n, ok := new(big.Int).SetString(nHex, 16)
	if !ok {
		return fmt.Errorf("invalid modulus %q", nHex)
	}
	m, ok := new(big.Int).SetString(mHex, 16)
	if !ok {
		return fmt.Errorf("invalid base %q", mHex)
	}
	e, ok := new(big.Int).SetString(eHex, 16)
	if !ok {
		return fmt.Errorf("invalid exponent %q", eHex)
	}
	kit := kits.Model
	if simulate {
		kit = kits.Sim
	}
	ex, err := expo.NewKit(n, kit)
	if err != nil {
		return err
	}
	got, rep, err := ex.ModExp(m, e)
	if err != nil {
		return err
	}
	l := rep.L
	fmt.Printf("M^E mod N = %s\n", got.Text(16))
	fmt.Printf("l = %d bits, kit = %s\n", l, kit)
	fmt.Printf("decomposition: %d squares + %d multiplies (+1 pre, +1 post)\n",
		rep.Squares, rep.Multiplies)
	fmt.Printf("cycle accounting (§4.5): pre %d + muls %d + post %d = %d cycles\n",
		rep.PreCycles, rep.MulCycles, rep.PostCycles, rep.TotalCycles)
	fmt.Printf("Eq. (10) bounds: %d ≤ T ≤ %d (average %.0f)\n",
		expo.PaperLowerBound(l), expo.PaperUpperBound(l), expo.PaperAverageCycles(l))
	if simulate {
		fmt.Printf("simulated circuit cycles: %d (measured, MUL1/MUL2 states only)\n",
			rep.SimulatedMulCycles)
	}
	// Verify against math/big so the tool is self-checking.
	if want := new(big.Int).Exp(m, e, n); got.Cmp(want) != 0 {
		return fmt.Errorf("self-check failed: got %s want %s", got.Text(16), want.Text(16))
	}
	fmt.Println("self-check vs math/big: OK")
	return nil
}
