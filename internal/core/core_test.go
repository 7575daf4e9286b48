package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mcudist/internal/deploy"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

func TestRunDefaultSystem(t *testing.T) {
	rep, res, err := run(DefaultSystem(8), Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles <= 0 || rep.Seconds <= 0 {
		t.Fatal("no runtime")
	}
	if math.Abs(rep.Seconds-rep.Cycles/500e6) > 1e-12 {
		t.Fatal("seconds/cycles inconsistent with 500 MHz")
	}
	if rep.Energy.Total() <= 0 {
		t.Fatal("no energy")
	}
	if math.Abs(rep.EDP-rep.Energy.Total()*rep.Seconds) > 1e-15 {
		t.Fatal("EDP inconsistent")
	}
	if rep.Tier != deploy.TierDoubleBuffered {
		t.Fatalf("tier %v, want double-buffered", rep.Tier)
	}
	if rep.Syncs != 16 {
		t.Fatalf("syncs = %d, want 16", rep.Syncs)
	}
	if len(res.PerChip) != 8 {
		t.Fatalf("per-chip stats = %d", len(res.PerChip))
	}
	if len(rep.ByClass) != 2 || len(rep.C2CEnergyByClass) != 2 {
		t.Fatalf("per-class split = %d sync, %d energy classes, want 2 (decode MHSA, FFN)",
			len(rep.ByClass), len(rep.C2CEnergyByClass))
	}
}

func TestWorkloadDefaultSeqLens(t *testing.T) {
	wl := Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	if wl.ResolvedSeqLen() != 128 {
		t.Fatalf("AR default = %d", wl.ResolvedSeqLen())
	}
	wl.Mode = model.Prompt
	if wl.ResolvedSeqLen() != 16 {
		t.Fatalf("prompt default = %d", wl.ResolvedSeqLen())
	}
	wl.SeqLen = 99
	if wl.ResolvedSeqLen() != 99 {
		t.Fatal("explicit seq len ignored")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(DefaultSystem(0), Workload{Model: model.TinyLlama42M()}); err == nil {
		t.Error("zero chips accepted")
	}
	if _, err := Run(DefaultSystem(9), Workload{Model: model.TinyLlama42M()}); err == nil {
		t.Error("9 chips on 8 heads accepted")
	}
	sys := DefaultSystem(4)
	sys.Strategy = partition.Strategy(42)
	if _, err := Run(sys, Workload{Model: model.TinyLlama42M()}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := Run(DefaultSystem(4), Workload{Model: model.MobileBERT512(), Mode: model.Autoregressive}); err == nil {
		t.Error("autoregressive encoder accepted")
	}
}

// A set straggler or degraded-link factor on a chip the system does
// not have throttled nothing: 8 chips with chip 99 at half speed priced
// as the healthy board. Both are now errors naming the chip, from Run
// and from Lower; an unset factor leaves the chip unchecked.
func TestRunRejectsOptionChipsOutOfRange(t *testing.T) {
	wl := Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	for _, tc := range []struct {
		name string
		opts deploy.Options
	}{
		{"straggler 99", deploy.Options{StragglerChip: 99, StragglerFactor: 0.5}},
		{"straggler 8", deploy.Options{StragglerChip: 8, StragglerFactor: 0.5}},
		{"straggler -1", deploy.Options{StragglerChip: -1, StragglerFactor: 0.5}},
		{"degraded link 99", deploy.Options{DegradedLinkChip: 99, DegradedLinkFactor: 0.25}},
		{"degraded link -1", deploy.Options{DegradedLinkChip: -1, DegradedLinkFactor: 0.25}},
	} {
		sys := DefaultSystem(8)
		sys.Options = tc.opts
		chip := fmt.Sprint(tc.opts.StragglerChip + tc.opts.DegradedLinkChip)
		if rep, err := Run(sys, wl); err == nil {
			t.Errorf("%s: Run accepted it with %g cycles", tc.name, rep.Cycles)
		} else if !strings.Contains(err.Error(), "chip "+chip+" ") {
			t.Errorf("%s: Run error %q does not name chip %s", tc.name, err, chip)
		}
		if _, err := Lower(sys, wl); err == nil {
			t.Errorf("%s: Lower accepted it", tc.name)
		}
	}
	sys := DefaultSystem(8)
	sys.Options.StragglerChip, sys.Options.DegradedLinkChip = 99, 99
	if _, err := Run(sys, wl); err != nil {
		t.Errorf("chips without a factor rejected: %v", err)
	}
}

func TestSweepOrdering(t *testing.T) {
	var reports []*Report
	for _, n := range []int{1, 2, 4, 8} {
		rep, err := Run(DefaultSystem(n), Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i].Cycles >= reports[i-1].Cycles {
			t.Errorf("runtime did not drop at step %d", i)
		}
	}
	if s := Speedup(reports[0], reports[3]); s <= 8 {
		t.Errorf("speedup %g not super-linear", s)
	}
}

func TestBaselineStrategiesRun(t *testing.T) {
	for _, strat := range []partition.Strategy{partition.Replicated, partition.Pipeline} {
		sys := DefaultSystem(4)
		sys.Strategy = strat
		rep, err := Run(sys, Workload{Model: model.TinyLlama42M(), Mode: model.Prompt})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if rep.Cycles <= 0 {
			t.Fatalf("%v: no runtime", strat)
		}
		// A pipeline hands activations stage to stage: no intra-block
		// synchronization at all.
		if strat == partition.Pipeline && rep.Syncs != 0 {
			t.Errorf("pipeline ran %d synchronizations, want 0", rep.Syncs)
		}
	}
}

func TestL3BytesAggregated(t *testing.T) {
	rep, res, err := run(DefaultSystem(8), Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range res.PerChip {
		sum += c.L3Bytes
	}
	if rep.L3Bytes != sum {
		t.Fatalf("L3Bytes %d != per-chip sum %d", rep.L3Bytes, sum)
	}
	// Double-buffered: the whole model crosses L3 once per forward.
	if rep.L3Bytes != int64(model.TinyLlama42M().TotalWeightBytes()) {
		t.Fatalf("L3 bytes %d, want one model worth", rep.L3Bytes)
	}
}

// MaxChipBusyCycles is the per-chip maximum it summarizes, bit for bit:
// ExtensionBatchingStudy's pipeline throughput reads it.
func TestMaxChipBusyCyclesSummarizesPerChip(t *testing.T) {
	for _, strat := range []partition.Strategy{partition.TensorParallel, partition.Pipeline} {
		sys := DefaultSystem(8)
		sys.Strategy = strat
		rep, res, err := run(sys, Workload{Model: model.TinyLlama42M(), Mode: model.Prompt, SeqLen: 16})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		var want float64
		for _, st := range res.PerChip {
			if busy := st.ComputeCycles + st.L2L1Cycles + st.L3Cycles; busy > want {
				want = busy
			}
		}
		if want <= 0 || math.Float64bits(rep.MaxChipBusyCycles) != math.Float64bits(want) {
			t.Errorf("%v: MaxChipBusyCycles = %v, want the per-chip maximum %v", strat, rep.MaxChipBusyCycles, want)
		}
	}
}
