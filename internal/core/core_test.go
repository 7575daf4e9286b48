package core

import (
	"math"
	"testing"

	"mcudist/internal/deploy"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

func TestRunDefaultSystem(t *testing.T) {
	rep, err := Run(DefaultSystem(8), Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive})
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
	if len(rep.PerChip) != 8 {
		t.Fatalf("per-chip stats = %d", len(rep.PerChip))
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

func TestSweepOrdering(t *testing.T) {
	reports, err := Sweep(DefaultSystem(1), Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d", len(reports))
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
	}
}

func TestL3BytesAggregated(t *testing.T) {
	rep, err := Run(DefaultSystem(8), Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range rep.PerChip {
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
