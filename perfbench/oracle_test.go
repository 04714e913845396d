package main

import (
	"bytes"
	"context"
	"errors"
	"math/big"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cryptosvc"
	"repro/internal/engine"
	"repro/internal/rsa"
	"repro/internal/server"
)

// fakeHandler answers every op with math/big and the standard library
// instead of the engine, and corrupts every corruptEvery-th answer
// when corruptEvery > 0.
type fakeHandler struct {
	corruptEvery int64
	calls        atomic.Int64
}

func (h *fakeHandler) corrupt() bool {
	n := h.calls.Add(1)
	return h.corruptEvery > 0 && n%h.corruptEvery == 0
}

func (h *fakeHandler) bump(v *big.Int) *big.Int {
	if h.corrupt() {
		return new(big.Int).Add(v, big.NewInt(1))
	}
	return v
}

func (h *fakeHandler) Mont(_ context.Context, n, x, y *big.Int) (*big.Int, error) {
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), uint(n.BitLen()+2)), n)
	t := new(big.Int).Mul(x, y)
	t.Mul(t, rInv)
	return h.bump(t.Mod(t, n)), nil
}

func (h *fakeHandler) ModExp(_ context.Context, n, b, e *big.Int) (*big.Int, error) {
	return h.bump(new(big.Int).Exp(b, e, n)), nil
}

func (h *fakeHandler) ModExpBatch(context.Context, []engine.ModExpJob) ([]engine.ModExpResult, error) {
	return nil, errors.New("unused")
}

func (h *fakeHandler) KeygenRSA(context.Context, int, int64) (*rsa.PrivateKey, error) {
	return nil, errors.New("unused")
}

func (h *fakeHandler) SignRSA(context.Context, *rsa.PrivateKey, *big.Int) (*big.Int, error) {
	return nil, errors.New("unused")
}

func (h *fakeHandler) VerifyRSA(_ context.Context, n, e, digest, sig *big.Int) (bool, error) {
	ok := new(big.Int).Exp(sig, e, n).Cmp(new(big.Int).Mod(digest, n)) == 0
	return ok != h.corrupt(), nil
}

func (h *fakeHandler) SignECDSA(context.Context, uint8, *big.Int, *big.Int, int64) (*big.Int, *big.Int, error) {
	return nil, nil, errors.New("unused")
}

func (h *fakeHandler) VerifyECDSABatch(context.Context, uint8, []cryptosvc.ECDSAVerifyItem) ([]cryptosvc.VerifyResult, error) {
	return nil, errors.New("unused")
}

// serveFake puts h behind a real wire server and returns a client.
func serveFake(t *testing.T, h *fakeHandler) *server.Client {
	t.Helper()
	srv, err := server.NewHandlerServer(h)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }()
	cl := server.Dial(ln.Addr().String(), server.WithPoolSize(clientPool))
	t.Cleanup(func() { cl.Close(); srv.Close(); <-done })
	return cl
}

// TestOracleCatchesWrongAnswers runs every workload's load loop and
// judge against a handler that is right except for every 7th answer,
// and against an honest one.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.pool = 32
			w.rate = 2000
			in, err := genInputs(w, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, every := range []int64{0, 7} {
				cl := serveFake(t, &fakeHandler{corruptEvery: every})
				var out bytes.Buffer
				m := measure(context.Background(), direct(cl), in, w, 200*time.Millisecond, 3)
				res := m.judge(newReport(&out), in)
				if every == 0 {
					if !res.Correct || m.wrong != 0 || res.Failed != 0 {
						t.Fatalf("honest handler judged wrong: %+v wrong=%d\n%s", res, m.wrong, out.String())
					}
					continue
				}
				if res.Correct || m.wrong == 0 || res.Failed < m.wrong {
					t.Fatalf("corrupting handler passed: %+v wrong=%d", res, m.wrong)
				}
				if !strings.Contains(out.String(), "WRONG") {
					t.Fatalf("report does not name the wrong answers:\n%s", out.String())
				}
			}
		})
	}
}
