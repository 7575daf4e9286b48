// Package experiments regenerates every table and figure of the
// paper's evaluation section from the simulator, plus the ablations
// and extension studies. Each experiment returns structured data;
// cmd/paperrepro renders them and the root benchmarks wrap them.
//
// Concurrency model: every experiment evaluates its configurations
// through the shared evalpool engine — points fan out across the
// worker pool and land in the process-wide memoized report cache, so
// rows arrive in deterministic order, repeated runs of an experiment
// are free, and configurations shared between figures (the 1-chip
// TinyLlama baseline appears in Fig. 4, Fig. 5, Table I, and the
// headline metrics) are simulated once per process. Output is
// byte-identical to the serial core.Run path.
package experiments

import (
	"fmt"

	"mcudist/internal/core"
	"mcudist/internal/deploy"
	"mcudist/internal/evalpool"
	"mcudist/internal/model"
	"mcudist/internal/perfsim"
)

// BreakdownRow is one bar group of Fig. 4: runtime breakdown and
// speedup at a chip count.
type BreakdownRow struct {
	Chips     int
	Cycles    float64
	Breakdown perfsim.Breakdown
	Speedup   float64
	Tier      deploy.Tier
}

// Fig4Result is one subplot of Fig. 4.
type Fig4Result struct {
	Name string
	Rows []BreakdownRow
}

func breakdownSweep(name string, wl core.Workload, chips []int) (*Fig4Result, error) {
	reports, err := evalpool.Eval(core.DefaultSystem(1), wl, chips)
	if err != nil {
		return nil, err
	}
	base := reports[0]
	if chips[0] != 1 {
		b, err := evalpool.Run(core.DefaultSystem(1), wl)
		if err != nil {
			return nil, err
		}
		base = b
	}
	out := &Fig4Result{Name: name}
	for i, r := range reports {
		out.Rows = append(out.Rows, BreakdownRow{
			Chips:     chips[i],
			Cycles:    r.Cycles,
			Breakdown: r.Breakdown,
			Speedup:   core.Speedup(base, r),
			Tier:      r.Tier,
		})
	}
	return out, nil
}

// Fig4a reproduces TinyLlama autoregressive mode on 1–8 chips
// (paper: 26.1× at 8 chips, L3-dominated below 8).
func Fig4a() (*Fig4Result, error) {
	return breakdownSweep("Fig4a TinyLlama autoregressive",
		core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive},
		[]int{1, 2, 4, 8})
}

// Fig4b reproduces TinyLlama prompt mode on 1–8 chips (paper: 9.9×).
func Fig4b() (*Fig4Result, error) {
	return breakdownSweep("Fig4b TinyLlama prompt",
		core.Workload{Model: model.TinyLlama42M(), Mode: model.Prompt},
		[]int{1, 2, 4, 8})
}

// Fig4c reproduces MobileBERT on 1–4 chips (paper: 4.7× at 4).
func Fig4c() (*Fig4Result, error) {
	return breakdownSweep("Fig4c MobileBERT",
		core.Workload{Model: model.MobileBERT512(), Mode: model.Prompt},
		[]int{1, 2, 4})
}

// Fig5Point is one marker of Fig. 5: runtime vs energy at a chip
// count, for the original (cross) or scaled-up (circle) model.
type Fig5Point struct {
	Chips    int
	Cycles   float64
	EnergyMJ float64
	EDP      float64
	Scaled   bool
	Tier     deploy.Tier
}

// Fig5Result is one subplot of Fig. 5.
type Fig5Result struct {
	Name   string
	Points []Fig5Point
}

func energySweep(name string, wl core.Workload, chips []int, scaled bool, acc *Fig5Result) (*Fig5Result, error) {
	if acc == nil {
		acc = &Fig5Result{Name: name}
	}
	reports, err := evalpool.Eval(core.DefaultSystem(1), wl, chips)
	if err != nil {
		return nil, err
	}
	for i, r := range reports {
		acc.Points = append(acc.Points, Fig5Point{
			Chips:    chips[i],
			Cycles:   r.Cycles,
			EnergyMJ: r.Energy.Total() * 1e3,
			EDP:      r.EDP,
			Scaled:   scaled,
			Tier:     r.Tier,
		})
	}
	return acc, nil
}

// Fig5a: energy vs runtime, TinyLlama autoregressive — original model
// at 1–8 chips plus the scaled-up model at 8–64.
func Fig5a() (*Fig5Result, error) {
	res, err := energySweep("Fig5a energy/runtime autoregressive",
		core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive},
		[]int{1, 2, 4, 8}, false, nil)
	if err != nil {
		return nil, err
	}
	return energySweep(res.Name,
		core.Workload{Model: model.TinyLlamaScaled64(), Mode: model.Autoregressive},
		[]int{8, 16, 32, 64}, true, res)
}

// Fig5b: energy vs runtime, TinyLlama prompt mode.
func Fig5b() (*Fig5Result, error) {
	res, err := energySweep("Fig5b energy/runtime prompt",
		core.Workload{Model: model.TinyLlama42M(), Mode: model.Prompt},
		[]int{1, 2, 4, 8}, false, nil)
	if err != nil {
		return nil, err
	}
	return energySweep(res.Name,
		core.Workload{Model: model.TinyLlamaScaled64(), Mode: model.Prompt},
		[]int{8, 16, 32, 64}, true, res)
}

// Fig5c: energy vs runtime, MobileBERT at 1–4 chips.
func Fig5c() (*Fig5Result, error) {
	return energySweep("Fig5c energy/runtime MobileBERT",
		core.Workload{Model: model.MobileBERT512(), Mode: model.Prompt},
		[]int{1, 2, 4}, false, nil)
}

// Fig6Row is one chip count of the scalability study.
type Fig6Row struct {
	Chips                                int
	AutoregressiveSpeedup, PromptSpeedup float64
}

// Fig6Result is the scaled-up TinyLlama scalability study.
type Fig6Result struct {
	Rows []Fig6Row
}

// Fig6 reproduces the scalability study on the 64-head TinyLlama:
// speedup of 2–64 chips over a single chip, both modes (paper: 60.1×
// autoregressive at 64 chips, prompt linear until 16).
func Fig6() (*Fig6Result, error) {
	cfg := model.TinyLlamaScaled64()
	chips := []int{1, 2, 4, 8, 16, 32, 64}
	ar, err := evalpool.Eval(core.DefaultSystem(1), core.Workload{Model: cfg, Mode: model.Autoregressive}, chips)
	if err != nil {
		return nil, err
	}
	pr, err := evalpool.Eval(core.DefaultSystem(1), core.Workload{Model: cfg, Mode: model.Prompt}, chips)
	if err != nil {
		return nil, err
	}
	out := &Fig6Result{}
	for i, n := range chips {
		if n == 1 {
			continue
		}
		out.Rows = append(out.Rows, Fig6Row{
			Chips:                 n,
			AutoregressiveSpeedup: core.Speedup(ar[0], ar[i]),
			PromptSpeedup:         core.Speedup(pr[0], pr[i]),
		})
	}
	return out, nil
}

// row lookup helper for tests and the headline metrics.
func (f *Fig4Result) Row(chips int) (BreakdownRow, error) {
	for _, r := range f.Rows {
		if r.Chips == chips {
			return r, nil
		}
	}
	return BreakdownRow{}, fmt.Errorf("experiments: no row for %d chips", chips)
}

// Point lookup helper.
func (f *Fig5Result) Point(chips int, scaled bool) (Fig5Point, error) {
	for _, p := range f.Points {
		if p.Chips == chips && p.Scaled == scaled {
			return p, nil
		}
	}
	return Fig5Point{}, fmt.Errorf("experiments: no point for %d chips (scaled=%v)", chips, scaled)
}
