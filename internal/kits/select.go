package kits

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"time"

	"repro/internal/mont"
	"repro/internal/systolic"
)

// Table records, for each (bit-length bucket, op shape) cell, the kit
// the microbenchmark found fastest and the measured rates behind that
// choice. A Table is immutable once built; tests pin one to make the
// selector deterministic.
type Table struct {
	// Picks[bucket][op] is the chosen kit for that cell.
	Picks [NumBuckets][NumOps]Kit
	// Rates[bucket][op][kit] is the measured throughput in ops/sec
	// (0 = not measured; Sim is never measured).
	Rates [NumBuckets][NumOps][NumKits]float64
}

// Selector answers "which kit for this job?" from a pinned Table.
// Selectors are immutable and safe for concurrent use.
type Selector struct {
	t *Table
}

// NewSelector wraps a table — typically ProcessTable(), or a pinned
// literal in tests.
func NewSelector(t *Table) *Selector { return &Selector{t: t} }

// Table exposes the underlying table (for stats reporting).
func (s *Selector) Table() *Table { return s.t }

// Pick returns the concrete kit for an operation on a modulus of the
// given bit length. The result is never Sim and never Auto.
func (s *Selector) Pick(op Op, bits int) Kit {
	k := s.t.Picks[Bucket(bits)][op]
	if k < Model || k >= Kit(NumKits) || k == Sim {
		return Model
	}
	return k
}

// measureBudget bounds the time spent per (bucket, op, kit) cell. With
// NumBuckets×NumOps×3 cells the whole table costs well under a second,
// once per process.
const measureBudget = 4 * time.Millisecond

// benchExp is the exponent used to rank modexp throughput: F4 = 65537,
// the ubiquitous RSA public exponent — 17 multiplications, enough to
// amortize domain entry/exit without making startup slow.
var benchExp = big.NewInt(65537)

// Measure runs the bounded microbenchmark and builds a fresh Table.
// Candidates are Model, CIOS and Big; the Sim kit is excluded by design
// (it is 10³–10⁶× slower than every alternative — benchmarking it would
// dominate startup to confirm a foregone conclusion). Each cell runs
// ops until measureBudget elapses, always completing at least one, so a
// slow kit costs at most one op over budget.
//
// Most callers want ProcessTable, which memoizes one Measure per
// process.
func Measure() *Table {
	t := &Table{}
	rng := rand.New(rand.NewSource(0x6b697473)) // fixed: same moduli every run
	for b := 0; b < NumBuckets; b++ {
		l := bucketRep[b]
		n := randOdd(rng, l)
		ctx, err := mont.NewCtx(n)
		if err != nil {
			// Unreachable for the fixed representative moduli; fall back
			// to the default kit for the whole bucket.
			for op := 0; op < NumOps; op++ {
				t.Picks[b][op] = Model
			}
			continue
		}
		x := new(big.Int).Rand(rng, n)
		y := new(big.Int).Rand(rng, n)
		for _, k := range [...]Kit{Model, CIOS, Big} {
			c, err := NewCore(ctx, k, systolic.Guarded)
			if err != nil {
				panic(err)
			}
			t.Rates[b][int(OpModExp)][int(k)] = rate(func() {
				if _, err := c.ModExp(x, benchExp); err != nil {
					panic(err)
				}
			})
			t.Rates[b][int(OpMont)][int(k)] = rate(func() {
				if _, err := c.Mont(x, y); err != nil {
					panic(err)
				}
			})
		}

		for op := 0; op < NumOps; op++ {
			t.Picks[b][op] = best(t.Rates[b][op])
		}
	}
	return t
}

// rate measures ops/sec for f within measureBudget (at least one op).
func rate(f func()) float64 {
	start := time.Now()
	ops := 0
	for {
		f()
		ops++
		if time.Since(start) >= measureBudget {
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	return float64(ops) / elapsed
}

// best returns the kit with the highest measured rate, preferring the
// earlier enum value on exact ties (Model wins a dead heat, keeping the
// choice stable).
func best(rates [NumKits]float64) Kit {
	k, r := Model, rates[int(Model)]
	for i := 0; i < NumKits; i++ {
		if rates[i] > r {
			k, r = Kit(i), rates[i]
		}
	}
	return k
}

var (
	processOnce sync.Once
	processTbl  *Table
)

// ProcessTable returns the per-process benchmark table, running Measure
// exactly once (on first call — construction of an Auto engine or core)
// and caching the result for the process lifetime.
func ProcessTable() *Table {
	processOnce.Do(func() { processTbl = Measure() })
	return processTbl
}

// String renders the table's picks, one line per bucket, for stats and
// debug output.
func (t *Table) String() string {
	var sb []byte
	for b := 0; b < NumBuckets; b++ {
		sb = append(sb, fmt.Sprintf("%s: modexp=%s mont=%s\n",
			BucketLabel(b), t.Picks[b][int(OpModExp)], t.Picks[b][int(OpMont)])...)
	}
	return string(sb)
}

// randOdd draws an odd l-bit modulus with the top bit set.
func randOdd(rng *rand.Rand, l int) *big.Int {
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(l-1)))
	n.SetBit(n, l-1, 1)
	n.SetBit(n, 0, 1)
	return n
}
