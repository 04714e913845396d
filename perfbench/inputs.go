package main

// Workload inputs. Everything the fleet is asked to compute is derived
// here from the run's seed with math/rand and math/big, before the
// fleet exists: the program under test receives only these generated
// operands, and the same seed always yields byte-identical inputs.

import (
	"math/big"
	"math/rand"
)

// opKind names the wire operation a request exercises.
type opKind uint8

const (
	opMont opKind = iota
	opModExp
	opVerifyRSA
)

func (k opKind) String() string {
	return [...]string{"mont", "modexp", "verify_rsa"}[k]
}

// request is one generated operation and what the oracle needs to judge
// its answer.
type request struct {
	kind opKind

	n, x, y *big.Int // mont: x·y·R⁻¹ mod 2N; modexp: x^y mod n

	digest *big.Int // verify_rsa
	sig    *big.Int // verify_rsa
	e      *big.Int // verify_rsa public exponent

	want     *big.Int // modexp: expected value (math/big Exp)
	wantGood bool     // verify_rsa: expected verdict
}

// inputs is a workload's generated request pool. The load generator
// cycles through reqs; warm holds one request per distinct modulus,
// the set-up pass that fills the fleet's caches.
type inputs struct {
	reqs []request
	warm []request
}

var f4 = big.NewInt(65537)

// randOdd returns a uniformly random odd integer of exactly bits bits.
func randOdd(rng *rand.Rand, bits int) *big.Int {
	buf := make([]byte, (bits+7)/8)
	rng.Read(buf)
	v := new(big.Int).SetBytes(buf)
	v.SetBit(v, bits-1, 1)
	for i := bits; i < 8*len(buf); i++ {
		v.SetBit(v, i, 0)
	}
	return v.SetBit(v, 0, 1)
}

// randBelow returns a uniform value in [1, n).
func randBelow(rng *rand.Rand, n *big.Int) *big.Int {
	buf := make([]byte, (n.BitLen()+7)/8+8)
	for {
		rng.Read(buf)
		v := new(big.Int).SetBytes(buf)
		v.Mod(v, n)
		if v.Sign() > 0 {
			return v
		}
	}
}

// genSmall256: 64 odd 256-bit moduli, Zipf-picked, half Mont and half
// F4 ModExp.
func genSmall256(rng *rand.Rand, pool int) (*inputs, error) {
	const moduli = 64
	ns := make([]*big.Int, moduli)
	for i := range ns {
		ns[i] = randOdd(rng, 256)
	}
	in := &inputs{}
	zipf := rand.NewZipf(rng, 1.1, 1, moduli-1)
	for i := 0; i < pool; i++ {
		n := ns[zipf.Uint64()]
		r := request{kind: opMont, n: n, x: randBelow(rng, n), y: randBelow(rng, n)}
		if i%2 == 1 {
			r.kind, r.y = opModExp, f4
			r.want = new(big.Int).Exp(r.x, f4, n)
		}
		in.reqs = append(in.reqs, r)
	}
	for _, n := range ns {
		x := randBelow(rng, n)
		in.warm = append(in.warm, request{kind: opModExp, n: n, x: x, y: f4,
			want: new(big.Int).Exp(x, f4, n)})
	}
	return in, nil
}

// verifyBadEvery is the share of verify requests carrying a bad
// signature: one in verifyBadEvery.
const verifyBadEvery = 16

// genVerify2048Cold: 1024 random odd 2048-bit moduli, each with a
// signature whose digest is sig^65537 mod n; requests draw moduli
// uniformly and every 16th carries a digest the signature does not
// match.
func genVerify2048Cold(rng *rand.Rand, pool int) (*inputs, error) {
	const moduli = 1024
	type pair struct{ n, sig, digest *big.Int }
	ps := make([]pair, moduli)
	for i := range ps {
		n := randOdd(rng, 2048)
		sig := randBelow(rng, n)
		ps[i] = pair{n, sig, new(big.Int).Exp(sig, f4, n)}
	}
	in := &inputs{}
	mk := func(p pair, good bool) request {
		r := request{kind: opVerifyRSA, n: p.n, e: f4, sig: p.sig, digest: p.digest, wantGood: good}
		if !good {
			r.digest = new(big.Int).Add(p.digest, big.NewInt(1))
			r.digest.Mod(r.digest, p.n)
		}
		return r
	}
	for i := 0; i < pool; i++ {
		in.reqs = append(in.reqs, mk(ps[rng.Intn(moduli)], i%verifyBadEvery != verifyBadEvery-1))
	}
	for _, p := range ps {
		in.warm = append(in.warm, mk(p, true))
	}
	return in, nil
}
