// Command verify runs the functional-correctness suite at FULL model
// scale (the unit tests use miniatures for speed): it distributes the
// real TinyLlama-42M and MobileBERT geometries across chips, executes
// the partitioned networks numerically — float32 and quantized int8 —
// and compares against the single-device references.
//
// This is the release gate for the paper's premise: the partitioning
// computes the same function.
//
// Usage:
//
//	verify                # every full-scale check (CI diffs its output
//	                      # against testdata/verify.txt)
//	verify -only smollm   # checks whose name contains the substring
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mcudist/internal/model"
	"mcudist/internal/numeric"
	"mcudist/internal/partition"
	"mcudist/internal/tensor"
)

type check struct {
	name string
	run  func() (string, error)
}

func main() {
	only := flag.String("only", "", "run only checks whose name contains this substring")
	flag.Parse()
	checks := []check{
		{"tinyllama float32, 8 chips, prompt S=8", tinyLlamaFloat},
		{"tinyllama float32, 8 chips, prefill+4 decode steps", tinyLlamaDecode},
		{"tinyllama int8, int32-reduce bit-exactness, 8 chips", tinyLlamaQuant},
		{"tinyllama int8/int16 exchange deviation, 8 chips", tinyLlamaInt8Reduce},
		{"mobilebert float32, 4 chips, S=32", mobileBERTFloat},
		{"smollm GQA float32, 3 chips, S=8", smolLMFloat},
	}
	failed, ran := 0, 0
	for _, c := range checks {
		if *only != "" && !strings.Contains(c.name, *only) {
			continue
		}
		ran++
		start := time.Now()
		detail, err := c.run()
		status := "ok"
		if err != nil {
			status = "FAIL: " + err.Error()
			failed++
		}
		fmt.Printf("%-55s %-6s %s (%.1fs)\n", c.name, status, detail, time.Since(start).Seconds())
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "verify: no check matches %q\n", *only)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "verify: %d check(s) failed\n", failed)
		os.Exit(1)
	}
	fmt.Printf("all %d full-scale checks passed\n", ran)
}

func tinyLlamaFloat() (string, error) {
	cfg := model.TinyLlama42M()
	w := model.NewWeights(cfg, 1)
	x := tensor.Random(8, cfg.E, 1, 2)
	ref := model.Forward(w, x, nil)
	p, err := partition.NewTensorParallel(cfg, 8)
	if err != nil {
		return "", err
	}
	e, err := numeric.NewExecutor(w, p)
	if err != nil {
		return "", err
	}
	d := tensor.MaxAbsDiff(ref, e.Forward(x))
	if d > 1e-4 {
		return "", fmt.Errorf("distributed differs by %g", d)
	}
	if e.Stats.Reduces != 2*cfg.L {
		return "", fmt.Errorf("%d reduces, want %d", e.Stats.Reduces, 2*cfg.L)
	}
	return fmt.Sprintf("maxdiff=%.2e syncs/block=2", d), nil
}

func tinyLlamaDecode() (string, error) {
	cfg := model.TinyLlama42M()
	w := model.NewWeights(cfg, 3)
	x := tensor.Random(8, cfg.E, 1, 4)

	cache := model.NewKVCache(cfg)
	p, _ := partition.NewTensorParallel(cfg, 8)
	e, err := numeric.NewExecutor(w, p)
	if err != nil {
		return "", err
	}
	model.Forward(w, x.SliceRows(0, 4), cache)
	e.Forward(x.SliceRows(0, 4))
	var worst float64
	for i := 4; i < 8; i++ {
		ref := model.ForwardStep(w, x.SliceRows(i, i+1), cache)
		got := e.ForwardStep(x.SliceRows(i, i+1))
		if d := tensor.MaxAbsDiff(ref, got); d > worst {
			worst = d
		}
	}
	if worst > 1e-4 {
		return "", fmt.Errorf("decode differs by %g", worst)
	}
	return fmt.Sprintf("maxdiff=%.2e over 4 steps", worst), nil
}

func tinyLlamaQuant() (string, error) {
	cfg := model.TinyLlama42M()
	w := model.NewWeights(cfg, 5)
	x := tensor.Random(4, cfg.E, 1, 6)
	cal, err := numeric.Calibrate(w, x)
	if err != nil {
		return "", err
	}
	p1, _ := partition.NewTensorParallel(cfg, 1)
	ref, err := numeric.NewQuantEngine(w, p1, cal, numeric.ReduceInt32)
	if err != nil {
		return "", err
	}
	p8, _ := partition.NewTensorParallel(cfg, 8)
	e, err := numeric.NewQuantEngine(w, p8, cal, numeric.ReduceInt32)
	if err != nil {
		return "", err
	}
	d := tensor.MaxAbsDiff(ref.Forward(x), e.Forward(x))
	if d != 0 {
		return "", fmt.Errorf("int32-reduce not bit-exact: %g", d)
	}
	return "bit-exact", nil
}

func tinyLlamaInt8Reduce() (string, error) {
	cfg := model.TinyLlama42M()
	w := model.NewWeights(cfg, 7)
	x := tensor.Random(4, cfg.E, 1, 8)
	cal, err := numeric.Calibrate(w, x)
	if err != nil {
		return "", err
	}
	p8, _ := partition.NewTensorParallel(cfg, 8)
	exact, err := numeric.NewQuantEngine(w, p8, cal, numeric.ReduceInt32)
	if err != nil {
		return "", err
	}
	refOut := exact.Forward(x)

	deviation := func(mode numeric.ReduceMode) (float64, error) {
		e, err := numeric.NewQuantEngine(w, p8, cal, mode)
		if err != nil {
			return 0, err
		}
		return tensor.MaxAbsDiff(refOut, e.Forward(x)), nil
	}
	d8, err := deviation(numeric.ReduceInt8)
	if err != nil {
		return "", err
	}
	d16, err := deviation(numeric.ReduceInt16)
	if err != nil {
		return "", err
	}
	var outMax float64
	for _, v := range refOut.Data {
		if a := float64(v); a > outMax {
			outMax = a
		} else if -a > outMax {
			outMax = -a
		}
	}
	r8, r16 := d8/outMax, d16/outMax
	// The int8 exchange lands partials on ~4 effective bits; the
	// int16 grid injects only rounding noise per reduce, but at
	// 8-block depth every requantization boundary the perturbation
	// crosses amplifies it to step scale — deviations stay a bounded
	// fraction of the output magnitude, shrinking with the exchange
	// width.
	if r16 >= r8 {
		return "", fmt.Errorf("int16 relative deviation %g not below int8 %g", r16, r8)
	}
	if r8 > 0.25 {
		return "", fmt.Errorf("int8-exchange relative deviation %g too large", r8)
	}
	if r16 > 0.15 {
		return "", fmt.Errorf("int16-exchange relative deviation %g too large", r16)
	}
	return fmt.Sprintf("rel-dev int8=%.1f%% int16=%.1f%% of |out|max (depth-amplified)", r8*100, r16*100), nil
}

func mobileBERTFloat() (string, error) {
	cfg := model.MobileBERT512()
	w := model.NewWeights(cfg, 9)
	x := tensor.Random(32, cfg.E, 1, 10)
	ref := model.Forward(w, x, nil)
	p, _ := partition.NewTensorParallel(cfg, 4)
	e, err := numeric.NewExecutor(w, p)
	if err != nil {
		return "", err
	}
	d := tensor.MaxAbsDiff(ref, e.Forward(x))
	if d > 1e-3 {
		return "", fmt.Errorf("encoder differs by %g", d)
	}
	return fmt.Sprintf("maxdiff=%.2e", d), nil
}

func smolLMFloat() (string, error) {
	cfg := model.SmolLM135M()
	cfg.L = 6 // six blocks keep the check quick; the math is per-block
	w := model.NewWeights(cfg, 11)
	x := tensor.Random(8, cfg.E, 1, 12)
	ref := model.Forward(w, x, nil)
	p, err := partition.NewTensorParallel(cfg, 3)
	if err != nil {
		return "", err
	}
	e, err := numeric.NewExecutor(w, p)
	if err != nil {
		return "", err
	}
	d := tensor.MaxAbsDiff(ref, e.Forward(x))
	if d > 1e-4 {
		return "", fmt.Errorf("GQA distributed differs by %g", d)
	}
	return fmt.Sprintf("maxdiff=%.2e", d), nil
}
