// Package tables regenerates the paper's evaluation tables from the
// reproduced system: Table 1 (clock period and average modular-
// exponentiation time per bit length) and Table 2 (slices, clock period,
// time-area product and time per multiplication), plus the §2
// comparison against Blum–Paar and a radix-sweep ablation.
//
// Every row is produced by building the full gate-level MMMC for that
// bit length, mapping it through the Virtex-E technology model, and
// combining the resulting clock period with cycle counts measured from
// the simulation (which conformance tests pin to the paper's formulas).
// The paper's own numbers ride along in each row so callers can print
// paper-vs-measured side by side.
package tables

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"

	"repro/internal/baseline"
	"repro/internal/bits"
	"repro/internal/expo"
	"repro/internal/fpga"
	"repro/internal/highradix"
	"repro/internal/kits"
	"repro/internal/logic"
	"repro/internal/mmmc"
	"repro/internal/systolic"
)

// StandardLengths is the bit-length sweep of the paper's Table 2.
var StandardLengths = []int{32, 64, 128, 256, 512, 1024}

// Table1Lengths is the sweep of Table 1 (no l = 64 row in the paper).
var Table1Lengths = []int{32, 128, 256, 512, 1024}

// PaperTable2 holds the published Table 2 (Xilinx V812E-BG-560-8).
var PaperTable2 = map[int]struct {
	Slices int
	TpNs   float64
	TAns   float64
	TMMMUs float64
}{
	32:   {225, 9.256, 2082.6, 0.926},
	64:   {418, 9.221, 3854.38, 1.807},
	128:  {806, 10.242, 8255.05, 3.974},
	256:  {1548, 9.956, 15411.88, 7.686},
	512:  {2972, 10.501, 31208.97, 16.171},
	1024: {5706, 10.458, 59673.35, 32.168},
}

// PaperTable1 holds the published Table 1.
var PaperTable1 = map[int]struct {
	TpNs      float64
	TModExpMs float64
}{
	32:   {9.256, 0.046},
	128:  {10.242, 0.775},
	256:  {9.956, 2.974},
	512:  {10.501, 12.468},
	1024: {10.458, 49.508},
}

// buildAndMap constructs the gate-level MMMC for width l and maps it.
func buildAndMap(l int) (fpga.MapResult, error) {
	nl := logic.New()
	if _, err := mmmc.BuildNetlist(nl, l, systolic.Faithful); err != nil {
		return fpga.MapResult{}, err
	}
	return fpga.VirtexE.Map(nl)
}

// Table2Row is one reproduced row of Table 2, with the paper's values.
type Table2Row struct {
	L            int
	Slices       int
	TpNs         float64
	TAns         float64 // slices × Tp
	TMMMUs       float64 // (3l+4) × Tp, microseconds
	CyclesPerMul int

	PaperSlices int
	PaperTpNs   float64
	PaperTMMMUs float64
}

// Table2 reproduces Table 2 for the given bit lengths (StandardLengths
// when nil). The cycle count per row comes from an actual simulated
// multiplication, not the formula.
func Table2(lengths []int) ([]Table2Row, error) {
	if lengths == nil {
		lengths = StandardLengths
	}
	rng := rand.New(rand.NewSource(7))
	rows := make([]Table2Row, 0, len(lengths))
	for _, l := range lengths {
		mr, err := buildAndMap(l)
		if err != nil {
			return nil, err
		}
		cycles, err := measureCyclesPerMul(l, rng)
		if err != nil {
			return nil, err
		}
		row := Table2Row{
			L:            l,
			Slices:       mr.Slices,
			TpNs:         mr.ClockPeriodNs,
			TAns:         float64(mr.Slices) * mr.ClockPeriodNs,
			TMMMUs:       float64(cycles) * mr.ClockPeriodNs / 1000,
			CyclesPerMul: cycles,
		}
		if p, ok := PaperTable2[l]; ok {
			row.PaperSlices = p.Slices
			row.PaperTpNs = p.TpNs
			row.PaperTMMMUs = p.TMMMUs
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// measureCyclesPerMul runs one real multiplication through the
// behavioural MMMC and returns its measured cycle count.
func measureCyclesPerMul(l int, rng *rand.Rand) (int, error) {
	n := randOdd(rng, l)
	c, err := mmmc.New(l, systolic.Guarded)
	if err != nil {
		return 0, err
	}
	x := new(big.Int).Rand(rng, new(big.Int).Lsh(n, 1))
	y := new(big.Int).Rand(rng, new(big.Int).Lsh(n, 1))
	_, cycles, err := c.Run(bits.FromBig(x, l+1), bits.FromBig(y, l+1), bits.FromBig(n, l))
	return cycles, err
}

// Table1Row is one reproduced row of Table 1.
type Table1Row struct {
	L              int
	TpNs           float64
	AvgCycles      float64 // paper's balanced-weight model, 4.5l²+12l+12
	MeasuredCycles int     // one actual exponentiation with a balanced l-bit exponent
	TModExpMs      float64 // AvgCycles × Tp

	PaperTpNs     float64
	PaperModExpMs float64
}

// Table1 reproduces Table 1 (Table1Lengths when nil). MeasuredCycles
// comes from a real square-and-multiply decomposition with a random
// balanced-Hamming-weight exponent of exactly l bits.
func Table1(lengths []int) ([]Table1Row, error) {
	if lengths == nil {
		lengths = Table1Lengths
	}
	rng := rand.New(rand.NewSource(8))
	rows := make([]Table1Row, 0, len(lengths))
	for _, l := range lengths {
		mr, err := buildAndMap(l)
		if err != nil {
			return nil, err
		}
		n := randOdd(rng, l)
		ex, err := expo.NewKit(n, kits.Model)
		if err != nil {
			return nil, err
		}
		m := new(big.Int).Rand(rng, n)
		e := balancedExponent(rng, l)
		_, rep, err := ex.ModExp(m, e)
		if err != nil {
			return nil, err
		}
		avg := expo.PaperAverageCycles(l)
		row := Table1Row{
			L:              l,
			TpNs:           mr.ClockPeriodNs,
			AvgCycles:      avg,
			MeasuredCycles: rep.TotalCycles,
			TModExpMs:      avg * mr.ClockPeriodNs / 1e6,
		}
		if p, ok := PaperTable1[l]; ok {
			row.PaperTpNs = p.TpNs
			row.PaperModExpMs = p.TModExpMs
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// balancedExponent returns an l-bit exponent with Hamming weight
// ⌈l/2⌉ (MSB forced to 1, as Algorithm 3 requires).
func balancedExponent(rng *rand.Rand, l int) *big.Int {
	e := new(big.Int)
	e.SetBit(e, l-1, 1)
	ones := 1
	for ones < (l+1)/2 {
		i := rng.Intn(l - 1)
		if e.Bit(i) == 0 {
			e.SetBit(e, i, 1)
			ones++
		}
	}
	return e
}

// CompareRow is one row of the §2 ours-vs-Blum–Paar comparison.
type CompareRow struct {
	L int

	OurCycles   int     // per multiplication
	OurTpNs     float64 // technology-model clock period
	OurModExpMs float64 // balanced-average exponentiation

	BPCycles   int
	BPTpNs     float64
	BPModExpMs float64

	Speedup float64 // BP time / our time per exponentiation
}

// CompareBlumPaar regenerates the §2 comparison for the given lengths.
func CompareBlumPaar(lengths []int) ([]CompareRow, error) {
	if lengths == nil {
		lengths = StandardLengths
	}
	rng := rand.New(rand.NewSource(9))
	rows := make([]CompareRow, 0, len(lengths))
	for _, l := range lengths {
		mr, err := buildAndMap(l)
		if err != nil {
			return nil, err
		}
		n := randOdd(rng, l)
		bp, err := baseline.NewBlumPaar(n)
		if err != nil {
			return nil, err
		}
		ourTp := mr.ClockPeriodNs
		bpTp := ourTp * baseline.ClockPeriodFactor
		avgMuls := 1.5 * float64(l) // l squares + l/2 multiplies
		ourMs := avgMuls * float64(3*l+4) * ourTp / 1e6
		bpMs := avgMuls * float64(bp.CyclesPerMul()) * bpTp / 1e6
		rows = append(rows, CompareRow{
			L:           l,
			OurCycles:   3*l + 4,
			OurTpNs:     ourTp,
			OurModExpMs: ourMs,
			BPCycles:    bp.CyclesPerMul(),
			BPTpNs:      bpTp,
			BPModExpMs:  bpMs,
			Speedup:     bpMs / ourMs,
		})
	}
	return rows, nil
}

// RadixRow is one row of the radix-ablation sweep.
type RadixRow struct {
	Alpha        uint
	Iterations   int
	CyclesPerMul int
	TpNs         float64
	TimePerMulUs float64
	RelativeArea float64
}

// RadixSweep evaluates the high-radix cost model at bit length l over
// the given radices, anchored at the Virtex-E clock period.
func RadixSweep(l int, alphas []uint) ([]RadixRow, error) {
	if alphas == nil {
		alphas = []uint{1, 2, 4, 8, 16}
	}
	mr, err := buildAndMap(l)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(10))
	n := randOdd(rng, l)
	rows := make([]RadixRow, 0, len(alphas))
	for _, a := range alphas {
		hr, err := highradix.New(n, a)
		if err != nil {
			return nil, err
		}
		cost := hr.Cost(mr.ClockPeriodNs)
		rows = append(rows, RadixRow{
			Alpha:        a,
			Iterations:   cost.Iterations,
			CyclesPerMul: cost.CyclesPerMul,
			TpNs:         cost.ClockPeriodNs,
			TimePerMulUs: cost.TimePerMulNs / 1000,
			RelativeArea: cost.RelativeArea,
		})
	}
	return rows, nil
}

// ---- formatting ----

// FormatTable2 renders Table 2 rows in the paper's layout with the
// published values alongside.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — slices S, clock period Tp, time-area product TA, time per MMM (model vs paper)\n")
	fmt.Fprintf(&b, "%6s %8s %9s %12s %11s %8s | %8s %9s %11s\n",
		"l", "S", "Tp[ns]", "TA[S·ns]", "TMMM[µs]", "cycles", "S(pap)", "Tp(pap)", "TMMM(pap)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %8d %9.3f %12.1f %11.3f %8d | %8d %9.3f %11.3f\n",
			r.L, r.Slices, r.TpNs, r.TAns, r.TMMMUs, r.CyclesPerMul,
			r.PaperSlices, r.PaperTpNs, r.PaperTMMMUs)
	}
	return b.String()
}

// FormatTable1 renders Table 1 rows.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — clock period and average modular exponentiation time (model vs paper)\n")
	fmt.Fprintf(&b, "%6s %9s %13s %15s %13s | %9s %13s\n",
		"l", "Tp[ns]", "avg cycles", "meas cycles", "Texp[ms]", "Tp(pap)", "Texp(pap)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %9.3f %13.0f %15d %13.3f | %9.3f %13.3f\n",
			r.L, r.TpNs, r.AvgCycles, r.MeasuredCycles, r.TModExpMs,
			r.PaperTpNs, r.PaperModExpMs)
	}
	return b.String()
}

// FormatCompare renders the Blum–Paar comparison.
func FormatCompare(rows []CompareRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Comparison — this work (R=2^(l+2)) vs Blum–Paar (R=2^(l+3))\n")
	fmt.Fprintf(&b, "%6s %10s %9s %11s | %10s %9s %11s | %8s\n",
		"l", "cyc/mul", "Tp[ns]", "Texp[ms]", "BP cyc", "BP Tp", "BP Texp", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %10d %9.3f %11.3f | %10d %9.3f %11.3f | %7.2fx\n",
			r.L, r.OurCycles, r.OurTpNs, r.OurModExpMs,
			r.BPCycles, r.BPTpNs, r.BPModExpMs, r.Speedup)
	}
	return b.String()
}

// FormatRadix renders the radix sweep.
func FormatRadix(l int, rows []RadixRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Radix sweep at l = %d — iterations ⌈(l+2)/α⌉, modelled PE cost\n", l)
	fmt.Fprintf(&b, "%7s %11s %9s %9s %12s %9s\n",
		"radix", "iters", "cycles", "Tp[ns]", "Tmul[µs]", "rel.area")
	for _, r := range rows {
		fmt.Fprintf(&b, "2^%-5d %11d %9d %9.3f %12.3f %9.1f\n",
			r.Alpha, r.Iterations, r.CyclesPerMul, r.TpNs, r.TimePerMulUs, r.RelativeArea)
	}
	return b.String()
}

func randOdd(rng *rand.Rand, l int) *big.Int {
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(l-1)))
	n.SetBit(n, l-1, 1)
	n.SetBit(n, 0, 1)
	return n
}
