package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"strings"
	"testing"
	"time"
)

func TestInputsFromSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.pool = 64
			digest := func(seed int64) [32]byte {
				in, err := genInputs(w, seed)
				if err != nil {
					t.Fatal(err)
				}
				if len(in.reqs) != w.pool || len(in.warm) == 0 {
					t.Fatalf("%d requests, %d warm-ups", len(in.reqs), len(in.warm))
				}
				for i := range in.reqs {
					if err := check(&in.reqs[i], oracleAnswer(t, &in.reqs[i])); err != nil {
						t.Fatalf("request %d: generated inputs fail their own oracle: %v", i, err)
					}
				}
				return in.digest()
			}
			a, b, c := digest(11), digest(11), digest(12)
			if a != b {
				t.Fatal("same seed gave different inputs")
			}
			if a == c {
				t.Fatal("different seeds gave identical inputs")
			}
		})
	}
}

// oracleAnswer computes the right answer to r with the fake handler's
// honest path.
func oracleAnswer(t *testing.T, r *request) answer {
	t.Helper()
	a, err := issue(context.Background(), &fakeHandler{}, r)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpecFile(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestShortRuns runs every workload briefly, plain and traced, and
// checks that each metric BENCHMARK.json names is printed, with its
// unit, in the JSON result and in the human report.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the fleet eight times")
	}
	spec := loadSpecFile(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("workload %q is not in the program", sw.Name)
		}
		// The open loop's rate is cut so that a short run under the
		// race detector, which slows the fleet several-fold, does not
		// overload it: this test checks what is printed, not the load.
		w.rate = min(w.rate, 200)
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				run, want := runPlain, spec.EndToEnd
				if traced {
					run, want = runTraced, spec.PerLayer
				}
				res, err := run(context.Background(), &out, w, 5, 600*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("traced=%v: %+v\n%s", traced, res, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %q", traced, m.Name, got, m.Unit)
					}
					if !strings.Contains(out.String(), "metric "+m.Name+" ") {
						t.Errorf("traced=%v: report does not print %s", traced, m.Name)
					}
				}
				for _, stamp := range []string{"env cpu=", "gomaxprocs=", "go=go", "git=", "seed=5", "kit=cios", "samples ok="} {
					if !strings.Contains(out.String(), stamp) {
						t.Errorf("traced=%v: report lacks %q", traced, stamp)
					}
				}
			}
		})
	}
}

// digest hashes the pool's operands in order: equal digests mean
// byte-identical inputs.
func (in *inputs) digest() [32]byte {
	h := sha256.New()
	put := func(v *big.Int) {
		if v == nil {
			h.Write([]byte{0})
			return
		}
		b := v.Bytes()
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(b)))
		h.Write([]byte{1})
		h.Write(l[:])
		h.Write(b)
	}
	for _, r := range append(append([]request(nil), in.reqs...), in.warm...) {
		h.Write([]byte{byte(r.kind)})
		for _, v := range []*big.Int{r.n, r.x, r.y, r.digest, r.sig, r.e, r.want} {
			put(v)
		}
		if r.wantGood {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	fmt.Fprintf(h, "%d/%d", len(in.reqs), len(in.warm))
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
