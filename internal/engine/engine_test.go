package engine

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/expo"
	"repro/internal/kits"
	"repro/internal/systolic"
)

// randOdd returns a random odd l-bit modulus (top bit set).
func randOdd(rng *rand.Rand, l int) *big.Int {
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(l-1)))
	n.SetBit(n, l-1, 1)
	n.SetBit(n, 0, 1)
	return n
}

// randOddSafe additionally keeps n ≤ ⅝·2^l < ⅔·2^l, below the Faithful
// variant's y + N ≤ 2^(l+1) hazard threshold, so Faithful results also
// agree with math/big.
func randOddSafe(rng *rand.Rand, l int) *big.Int {
	n := randOdd(rng, l)
	n.SetBit(n, l-2, 0)
	n.SetBit(n, l-3, 0)
	return n
}

// TestEngineMatchesSequential is the core equivalence table: batches
// through the concurrent engine must be bit-identical to the sequential
// Exponentiator (and to math/big) over random odd moduli — reference
// mode at every paper bit length, cycle-accurate simulation in both
// array variants at lengths where simulating is affordable.
func TestEngineMatchesSequential(t *testing.T) {
	cases := []struct {
		name    string
		l       int
		kit     kits.Kit
		variant systolic.Variant
		moduli  int // distinct moduli
		jobs    int // jobs per modulus
		expBits int
	}{
		{"model/l=32", 32, kits.Model, systolic.Guarded, 4, 300, 32},
		{"model/l=64", 64, kits.Model, systolic.Guarded, 4, 300, 64},
		{"model/l=512", 512, kits.Model, systolic.Guarded, 2, 60, 96},
		{"model/l=1024", 1024, kits.Model, systolic.Guarded, 2, 30, 96},
		{"simulate-guarded/l=32", 32, kits.Sim, systolic.Guarded, 2, 30, 16},
		{"simulate-guarded/l=64", 64, kits.Sim, systolic.Guarded, 2, 15, 16},
		{"simulate-faithful/l=32", 32, kits.Sim, systolic.Faithful, 2, 30, 16},
		{"simulate-faithful/l=64", 64, kits.Sim, systolic.Faithful, 2, 15, 16},
		{"cios/l=64", 64, kits.CIOS, systolic.Guarded, 4, 300, 64},
		{"cios/l=512", 512, kits.CIOS, systolic.Guarded, 2, 60, 96},
		{"cios/l=1024", 1024, kits.CIOS, systolic.Guarded, 2, 30, 96},
		{"big/l=512", 512, kits.Big, systolic.Guarded, 2, 60, 96},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(7000 + tc.l + int(tc.kit)<<4 + int(tc.variant))))
			eng, err := New(WithWorkers(4), WithKit(tc.kit), WithArrayVariant(tc.variant))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			total := tc.moduli * tc.jobs
			if testing.Short() {
				total = total / 4
			}
			jobs := make([]ModExpJob, 0, total)
			moduli := make([]*big.Int, tc.moduli)
			for i := range moduli {
				moduli[i] = randOddSafe(rng, tc.l)
			}
			for i := 0; i < total; i++ {
				n := moduli[i%tc.moduli]
				base := new(big.Int).Rand(rng, n)
				exp := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(tc.expBits)))
				exp.SetBit(exp, 0, 1) // keep positive
				jobs = append(jobs, ModExpJob{N: n, Base: base, Exp: exp})
			}

			results, err := eng.ModExpBatch(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}

			// One sequential exponentiator per modulus, same kit/variant.
			seq := make(map[string]*expo.Exponentiator, tc.moduli)
			for _, n := range moduli {
				ex, err := expo.NewKit(n, tc.kit, expo.WithArrayVariant(tc.variant))
				if err != nil {
					t.Fatal(err)
				}
				seq[n.String()] = ex
			}
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("job %d failed: %v", i, r.Err)
				}
				want, wantRep, err := seq[jobs[i].N.String()].ModExp(jobs[i].Base, jobs[i].Exp)
				if err != nil {
					t.Fatal(err)
				}
				if r.Value.Cmp(want) != 0 {
					t.Fatalf("job %d: engine %s != sequential %s", i, r.Value, want)
				}
				if bigWant := new(big.Int).Exp(jobs[i].Base, jobs[i].Exp, jobs[i].N); r.Value.Cmp(bigWant) != 0 {
					t.Fatalf("job %d: engine %s != math/big %s", i, r.Value, bigWant)
				}
				if r.Report.TotalCycles != wantRep.TotalCycles ||
					r.Report.Squares != wantRep.Squares ||
					r.Report.Multiplies != wantRep.Multiplies {
					t.Fatalf("job %d: report mismatch: %+v vs %+v", i, r.Report, wantRep)
				}
			}

			st := eng.Stats()
			if st.Completed != int64(total) || st.Failed != 0 || st.Canceled != 0 {
				t.Errorf("stats after clean batch: %s", st)
			}
			// Each modulus is built at least once; racing workers may
			// each build a cold modulus, but never more than one build
			// per worker per modulus.
			if st.CtxMisses < int64(tc.moduli) || st.CtxMisses > int64(tc.moduli*eng.Workers()) {
				t.Errorf("ctx cache misses out of range: %d for %d moduli on %d workers",
					st.CtxMisses, tc.moduli, eng.Workers())
			}
			if tc.kit == kits.Sim && st.SimCycles == 0 {
				t.Error("sim kit accumulated no measured cycles")
			}
			if v := st.KitJobs[tc.kit]; v != int64(total) {
				t.Errorf("per-kit stats: kit_%s=%d, want %d", tc.kit, v, total)
			}
		})
	}
}

// TestMontBatchMatchesReference checks the raw-product batch API
// against the reference arithmetic, including the operand-range
// sentinel on a bad job (which must not poison its neighbours).
func TestMontBatchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := randOdd(rng, 64)
	n2 := new(big.Int).Lsh(n, 1)

	eng, err := New(WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const count = 500
	jobs := make([]MontJob, count)
	for i := range jobs {
		jobs[i] = MontJob{
			N: n,
			X: new(big.Int).Rand(rng, n2),
			Y: new(big.Int).Rand(rng, n2),
		}
	}
	jobs[137].X = new(big.Int).Set(n2) // out of range: x = 2N

	results, err := eng.MontBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := expo.NewKit(n, kits.Model)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if i == 137 {
			if !errors.Is(r.Err, errs.ErrOperandRange) {
				t.Fatalf("bad job: want ErrOperandRange, got %v", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if want := ref.Ctx().Mul(jobs[i].X, jobs[i].Y); r.Value.Cmp(want) != 0 {
			t.Fatalf("job %d: %s != %s", i, r.Value, want)
		}
	}
	if st := eng.Stats(); st.Failed != 1 || st.Completed != count-1 {
		t.Errorf("stats: %s", st)
	}
}

// TestEngineCancellation cancels a batch mid-flight: the call must
// return promptly with ctx.Err(), completed jobs keep their values, and
// every job the engine gave up on is clearly marked with the
// cancellation error.
func TestEngineCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := randOdd(rng, 1024)

	// One worker and a tiny queue so the batch is still submitting when
	// the cancel lands.
	eng, err := New(WithWorkers(1), WithQueueDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const count = 200
	jobs := make([]ModExpJob, count)
	exp := new(big.Int).Lsh(big.NewInt(1), 1023)
	exp.Sub(exp, big.NewInt(1)) // all-ones exponent: worst-case work
	for i := range jobs {
		jobs[i] = ModExpJob{N: n, Base: new(big.Int).Rand(rng, n), Exp: exp}
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	results, err := eng.ModExpBatch(ctx, jobs)
	elapsed := time.Since(start)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: took %s", elapsed)
	}
	var done, canceled int
	for i, r := range results {
		switch {
		case r.Err == nil:
			want := new(big.Int).Exp(jobs[i].Base, jobs[i].Exp, n)
			if r.Value == nil || r.Value.Cmp(want) != 0 {
				t.Fatalf("completed job %d has wrong value", i)
			}
			done++
		case errors.Is(r.Err, context.Canceled):
			if r.Value != nil {
				t.Fatalf("cancelled job %d carries a value", i)
			}
			canceled++
		default:
			t.Fatalf("job %d: unexpected error %v", i, r.Err)
		}
	}
	if canceled == 0 {
		t.Error("no job was marked cancelled")
	}
	if done+canceled != count {
		t.Errorf("results unaccounted: %d done + %d canceled != %d", done, canceled, count)
	}
}

// TestPerJobDeadline: an already-expired per-job deadline fails that
// job with context.DeadlineExceeded without touching its neighbours.
func TestPerJobDeadline(t *testing.T) {
	eng, err := New(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	n := big.NewInt(0xF1F1)
	jobs := []ModExpJob{
		{N: n, Base: big.NewInt(0x123), Exp: big.NewInt(65537)},
		{N: n, Base: big.NewInt(0x456), Exp: big.NewInt(65537), Deadline: time.Now().Add(-time.Second)},
		{N: n, Base: big.NewInt(0x789), Exp: big.NewInt(65537)},
	}
	results, err := eng.ModExpBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v / %v", results[0].Err, results[2].Err)
	}
	if !errors.Is(results[1].Err, context.DeadlineExceeded) {
		t.Fatalf("expired job: want DeadlineExceeded, got %v", results[1].Err)
	}
	if st := eng.Stats(); st.Canceled != 1 || st.Completed != 2 {
		t.Errorf("stats: %s", st)
	}
}

// TestEngineClosed: submissions after Close fail with the sentinel, and
// closing twice reports it too.
func TestEngineClosed(t *testing.T) {
	eng, err := New(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.ModExp(context.Background(), big.NewInt(101), big.NewInt(5), big.NewInt(13)); !errors.Is(err, errs.ErrEngineClosed) {
		t.Errorf("submit after close: got %v", err)
	}
	if err := eng.Close(); !errors.Is(err, errs.ErrEngineClosed) {
		t.Errorf("double close: got %v", err)
	}
}

// TestEngineBadModulus routes the modulus sentinels through batch
// results.
func TestEngineBadModulus(t *testing.T) {
	eng, err := New(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	results, err := eng.ModExpBatch(context.Background(), []ModExpJob{
		{N: big.NewInt(4), Base: big.NewInt(1), Exp: big.NewInt(1)},
		{N: big.NewInt(1), Base: big.NewInt(0), Exp: big.NewInt(1)},
		{N: nil, Base: big.NewInt(0), Exp: big.NewInt(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, errs.ErrEvenModulus) {
		t.Errorf("even modulus: got %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, errs.ErrModulusTooSmall) {
		t.Errorf("small modulus: got %v", results[1].Err)
	}
	if !errors.Is(results[2].Err, errs.ErrOperandRange) {
		t.Errorf("nil modulus: got %v", results[2].Err)
	}
}

// TestSharedCircuitRace is the -race regression for the Multiplier
// mutability hazard: many goroutines hammer one *simulated* engine over
// one modulus concurrently. Each worker core owns its circuit
// exclusively — if the engine ever shared a circuit (or a shared
// mont.Ctx were mutable), the race detector would flag this test and
// results would corrupt. Also exercises concurrent submitters sharing
// one Engine.
func TestSharedCircuitRace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := randOdd(rng, 32)

	eng, err := New(WithWorkers(4), WithKit(kits.Sim))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const submitters = 8
	const jobsEach = 10
	var wg sync.WaitGroup
	errCh := make(chan error, submitters)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			jobs := make([]ModExpJob, jobsEach)
			for i := range jobs {
				base := new(big.Int).Rand(rng, n)
				jobs[i] = ModExpJob{N: n, Base: base, Exp: big.NewInt(65537)}
			}
			results, err := eng.ModExpBatch(context.Background(), jobs)
			if err != nil {
				errCh <- err
				return
			}
			for i, r := range results {
				if r.Err != nil {
					errCh <- r.Err
					return
				}
				want := new(big.Int).Exp(jobs[i].Base, jobs[i].Exp, n)
				if r.Value.Cmp(want) != 0 {
					errCh <- errors.New("simulated result corrupted under concurrency")
					return
				}
			}
		}(int64(100 + s))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.SimCycles == 0 {
		t.Error("no simulated cycles recorded")
	}
}

// TestStatsAccounting pins the counters to a known workload.
func TestStatsAccounting(t *testing.T) {
	eng, err := New(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	n := big.NewInt(0xF1F1)
	const count = 20
	jobs := make([]ModExpJob, count)
	for i := range jobs {
		jobs[i] = ModExpJob{N: n, Base: big.NewInt(int64(i + 2)), Exp: big.NewInt(17)}
	}
	if _, err := eng.ModExpBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Submitted != count || st.Completed != count || st.QueueDepth != 0 {
		t.Errorf("counts: %s", st)
	}
	// exp=17 → 4 squares + 1 multiply + pre + post = 7 products per job.
	if st.Muls != count*7 {
		t.Errorf("muls: got %d want %d", st.Muls, count*7)
	}
	if st.ModelCycles == 0 || st.SimCycles != 0 {
		t.Errorf("cycles: model=%d sim=%d", st.ModelCycles, st.SimCycles)
	}
	if st.TotalWall <= 0 || st.MeanLatency() <= 0 {
		t.Errorf("latency accounting: %s", st)
	}
	// Two workers → at most two cold context builds for one modulus.
	if st.CtxMisses > 2 {
		t.Errorf("ctx cache: %d misses for one modulus on two workers", st.CtxMisses)
	}
}

// TestCtxCacheLRU evicts least-recently-used moduli at capacity.
func TestCtxCacheLRU(t *testing.T) {
	c := newCtxCache(2)
	n1, n2, n3 := big.NewInt(101), big.NewInt(103), big.NewInt(107)
	for _, n := range []*big.Int{n1, n2, n3, n3, n2} {
		if _, err := c.get(n); err != nil {
			t.Fatal(err)
		}
	}
	// n1 was evicted by n3; n2 and n3 should be resident.
	hits0, misses0, evict0 := c.counts()
	if _, err := c.get(n1); err != nil {
		t.Fatal(err)
	}
	_, misses1, evict1 := c.counts()
	if misses1 != misses0+1 {
		t.Error("expected n1 to have been evicted")
	}
	if hits0 != 2 || misses0 != 3 {
		t.Errorf("hit/miss accounting: %d/%d", hits0, misses0)
	}
	// Capacity 2 with 4 distinct moduli inserted: n3 evicted n1, and the
	// re-fetch of n1 evicted the then-LRU resident.
	if evict0 != 1 || evict1 != 2 {
		t.Errorf("eviction accounting: %d then %d, want 1 then 2", evict0, evict1)
	}
}
