package core

import (
	"reflect"
	"strings"
	"testing"

	"mcudist/internal/model"
)

// A zero / one micro-batch width must resolve to the exact
// pre-batch simulator: every golden number in the repo is pinned on
// that path.
func TestBatchDefaultIsSingleSession(t *testing.T) {
	sys := DefaultSystem(8)
	wl := Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	base, err := Run(sys, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{0, 1} {
		wlB := wl
		wlB.Batch = b
		got, err := Run(sys, wlB)
		if err != nil {
			t.Fatal(err)
		}
		// The Workload echo differs by construction; everything the
		// simulator computed must be bit-identical.
		got.Workload = base.Workload
		if !reflect.DeepEqual(got, base) {
			t.Errorf("Batch=%d diverged from the single-session path", b)
		}
	}
}

// Continuous batching must amortize: a decode micro-batch of width B
// costs strictly less than B single-token steps (shared weight reads,
// kernel setup, and per-hop link setup), while still costing more
// than one single-token step.
func TestBatchAmortizesDecodeStep(t *testing.T) {
	sys := DefaultSystem(8)
	wl := Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive, SeqLen: 128}
	single, err := Run(sys, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{2, 4, 8} {
		wlB := wl
		wlB.Batch = b
		batched, err := Run(sys, wlB)
		if err != nil {
			t.Fatal(err)
		}
		if batched.Cycles <= single.Cycles {
			t.Errorf("Batch=%d: %g cycles not above the single step's %g", b, batched.Cycles, single.Cycles)
		}
		if batched.Cycles >= float64(b)*single.Cycles {
			t.Errorf("Batch=%d: %g cycles does not amortize %d x %g", b, batched.Cycles, b, single.Cycles)
		}
		if batched.Energy.Total() >= float64(b)*single.Energy.Total() {
			t.Errorf("Batch=%d: energy %g J does not amortize %d x %g J", b, batched.Energy.Total(), b, single.Energy.Total())
		}
	}
}

// Batch widths are a decode concept; prompt mode already batches over
// the sequence dimension, and negative widths are nonsense.
func TestBatchValidation(t *testing.T) {
	sys := DefaultSystem(8)
	if _, err := Run(sys, Workload{Model: model.TinyLlama42M(), Mode: model.Prompt, Batch: 4}); err == nil {
		t.Error("prompt-mode batch accepted")
	}
	// Lower shares Run's checks: a prompt batch fails with core's
	// message before the planner sees it.
	const want = "core: micro-batch width 4 needs autoregressive mode"
	if _, err := Lower(sys, Workload{Model: model.TinyLlama42M(), Mode: model.Prompt, Batch: 4}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Lower with a prompt batch: err = %v, want %q", err, want)
	}
	if _, err := Run(sys, Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive, Batch: -1}); err == nil {
		t.Error("negative batch accepted")
	}
}

// A negative sequence length is an error, not the paper default: each
// raw value digests to its own store key, so a silent default would
// simulate and store the paper point once per spelling.
func TestNegativeSeqLenRejected(t *testing.T) {
	sys := DefaultSystem(8)
	for _, mode := range []model.Mode{model.Autoregressive, model.Prompt} {
		wl := Workload{Model: model.TinyLlama42M(), Mode: mode, SeqLen: -5}
		if _, err := Run(sys, wl); err == nil || !strings.Contains(err.Error(), "sequence length -5") {
			t.Errorf("%v: Run with SeqLen -5: err = %v", mode, err)
		}
		if _, err := Lower(sys, wl); err == nil || !strings.Contains(err.Error(), "sequence length -5") {
			t.Errorf("%v: Lower with SeqLen -5: err = %v", mode, err)
		}
	}
}
