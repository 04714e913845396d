// Package kits names the compute backends ("kits") the system can run a
// Montgomery operation on, and implements the engine's auto-selector: a
// bounded, process-cached startup microbenchmark that tables per-kit
// throughput by (modulus bit-length bucket, operation shape) and picks
// the fastest kit per job.
//
// The kits are the paper's design points made concrete:
//
//   - Model — the radix-2 Algorithm 2 reference loop plus the paper's
//     closed-form cycle model (3l+4 per multiplication). Bit-exact with
//     the hardware, host-speed arithmetic. The default.
//   - Sim — the cycle-accurate simulated systolic array. Slowest by
//     orders of magnitude; exists for fidelity, never for throughput,
//     so the auto-selector will not pick it.
//   - CIOS — the production radix-2^64 word-serial fast path
//     (internal/highradix.Word): the §2 radix-2^α trade-off taken to
//     α = 64, carry-save accumulation in the word loop, no final
//     subtraction on the hot path.
//   - Big — math/big's own modular arithmetic as an oracle backend.
//   - Auto — not a backend: a request to pick one of the above per job
//     from the benchmark table.
//
// Each concrete kit implements Core — Mont, ModExp and a simulated-cycle
// count for one modulus — in its own file (model.go, sim.go, cios.go,
// big.go), and NewCore is the one constructor mapping a Kit to its
// implementation. The multiplier, the exponentiator and the engine all
// compute through a Core rather than switching on the kit.
package kits

import (
	"fmt"
	"strings"
)

// Kit identifies a compute backend.
type Kit int

const (
	// Model is the paper-faithful radix-2 reference path (default).
	Model Kit = iota
	// Sim is the cycle-accurate simulated systolic circuit.
	Sim
	// CIOS is the radix-2^64 word-serial fast path.
	CIOS
	// Big is the math/big oracle backend.
	Big
	// Auto selects a concrete kit per job from the benchmark table.
	Auto
)

// NumKits counts the concrete kits (Auto is a selection policy, not a
// backend) — the size for per-kit stats arrays.
const NumKits = int(Auto)

// String returns the flag-friendly lowercase name.
func (k Kit) String() string {
	switch k {
	case Model:
		return "model"
	case Sim:
		return "sim"
	case CIOS:
		return "cios"
	case Big:
		return "big"
	case Auto:
		return "auto"
	}
	return fmt.Sprintf("kit(%d)", int(k))
}

// Parse maps a flag value (case-insensitive: model|sim|cios|big|auto)
// to its Kit.
func Parse(s string) (Kit, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "model":
		return Model, nil
	case "sim", "simulate":
		return Sim, nil
	case "cios", "highradix", "word":
		return CIOS, nil
	case "big":
		return Big, nil
	case "auto":
		return Auto, nil
	}
	return Model, fmt.Errorf("kits: unknown kit %q (want model|sim|cios|big|auto)", s)
}

// Valid reports whether k names a known kit (including Auto).
func (k Kit) Valid() bool { return k >= Model && k <= Auto }

// Op is the operation shape a selection is made for.
type Op int

const (
	// OpModExp is a full modular exponentiation.
	OpModExp Op = iota
	// OpMont is a single Montgomery multiplication.
	OpMont

	// NumOps sizes per-op tables.
	NumOps = int(OpMont) + 1
)

func (o Op) String() string {
	switch o {
	case OpModExp:
		return "modexp"
	case OpMont:
		return "mont"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Modulus bit-length buckets. Jobs are bucketed by BitLen(N); the
// boundaries track the operand sizes the serving stack actually sees
// (RSA-shaped 1024/2048 plus smaller ECC-shaped moduli).
var bucketBounds = [...]int{256, 512, 1024, 2048}

// NumBuckets is the number of bit-length buckets.
const NumBuckets = len(bucketBounds) + 1

// Bucket maps a modulus bit length to its bucket index: ≤256, ≤512,
// ≤1024, ≤2048, >2048.
func Bucket(bits int) int {
	for i, b := range bucketBounds {
		if bits <= b {
			return i
		}
	}
	return NumBuckets - 1
}

// BucketLabel names a bucket for reports.
func BucketLabel(i int) string {
	if i < len(bucketBounds) {
		return fmt.Sprintf("<=%d", bucketBounds[i])
	}
	return fmt.Sprintf(">%d", bucketBounds[len(bucketBounds)-1])
}

// bucketRep is the representative modulus bit length benchmarked for
// each bucket.
var bucketRep = [NumBuckets]int{256, 512, 1024, 2048, 3072}
