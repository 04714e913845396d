package wave

import (
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/logic"
)

func TestVCDIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		id := vcdID(i)
		if seen[id] {
			t.Fatalf("duplicate id %q at %d", id, i)
		}
		for _, ch := range id {
			if ch < 33 || ch > 126 {
				t.Fatalf("non-printable id char %q", ch)
			}
		}
		seen[id] = true
	}
}

func TestWriterBasics(t *testing.T) {
	var sb strings.Builder
	vw, err := NewWriter(&sb, "mmm", []string{"clk en", "T(1)"})
	if err != nil {
		t.Fatal(err)
	}
	if err := vw.Sample(0, bits.Vec{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := vw.Sample(1, bits.Vec{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := vw.Sample(2, bits.Vec{1, 1}); err != nil { // no change
		t.Fatal(err)
	}
	if err := vw.Close(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"$timescale 1ns $end",
		"$scope module mmm $end",
		"$var wire 1 ! clk_en $end",
		"$var wire 1 \" T1 $end",
		"$dumpvars",
		"#0", "#1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	if strings.Contains(out, "#2") {
		t.Error("unchanged sample emitted a timestamp")
	}
}

func TestWriterValidation(t *testing.T) {
	var sb strings.Builder
	if _, err := NewWriter(&sb, "m", nil); err == nil {
		t.Error("no signals accepted")
	}
	vw, _ := NewWriter(&sb, "", []string{"a"})
	if err := vw.Sample(0, bits.Vec{0, 1}); err == nil {
		t.Error("wrong value count accepted")
	}
	if err := vw.Sample(5, bits.Vec{1}); err != nil {
		t.Fatal(err)
	}
	if err := vw.Sample(3, bits.Vec{0}); err == nil {
		t.Error("time reversal accepted")
	}
	vw.Close()
	if err := vw.Sample(6, bits.Vec{0}); err == nil {
		t.Error("sample after close accepted")
	}
	if err := vw.Close(); err != nil {
		t.Error("double close errored")
	}
}

// Recorder over a real simulation: a toggling flip-flop produces
// alternating value changes.
func TestRecorderOverSimulation(t *testing.T) {
	nl := logic.New()
	// Toggle FF: q' = NOT q, via the feedback pattern.
	buf := nl.BufGate(logic.Const0)
	q := nl.AddDFF(buf, 0, "q")
	nl.PatchGateInput(0, nl.NotGate(q))
	sim, err := logic.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	rec, err := NewRecorder(&sb, "toggle", nl, sim, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		sim.Step()
		if err := rec.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	rec.Close()
	out := sb.String()
	// q toggles every cycle: timestamps #0..#4 all present.
	for _, ts := range []string{"#0", "#1", "#2", "#3", "#4"} {
		if !strings.Contains(out, ts) {
			t.Errorf("missing timestamp %s", ts)
		}
	}
}

// Recorder with explicit signal selection.
func TestRecorderExplicitSignals(t *testing.T) {
	nl := logic.New()
	a := nl.Input("a")
	q := nl.AddDFF(a, 0, "q")
	sim, _ := logic.Compile(nl)
	var sb strings.Builder
	rec, err := NewRecorder(&sb, "m", nl, sim, []logic.Signal{a, q})
	if err != nil {
		t.Fatal(err)
	}
	rec.Snapshot()
	sim.Set(a, 1)
	sim.Step()
	rec.Snapshot()
	rec.Close()
	if !strings.Contains(sb.String(), "$var wire 1 ! a $end") {
		t.Error("input signal not declared")
	}
}
