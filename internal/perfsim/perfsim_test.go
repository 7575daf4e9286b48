package perfsim

import (
	"math"
	"testing"

	"mcudist/internal/deploy"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

func runTP(t *testing.T, cfg model.Config, n int, mode model.Mode, s int, opts deploy.Options) *Result {
	t.Helper()
	p, err := partition.NewTensorParallel(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.NewBatched(p, hw.Siracusa(), mode, s, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSingleChipRunsWithoutSyncTraffic(t *testing.T) {
	res := runTP(t, model.TinyLlama42M(), 1, model.Autoregressive, 128, deploy.Options{})
	if res.TotalC2CBytes != 0 {
		t.Fatalf("single chip sent %d C2C bytes", res.TotalC2CBytes)
	}
	if res.TotalCycles <= 0 {
		t.Fatal("no runtime")
	}
	if res.Breakdown.C2C != 0 {
		t.Fatalf("single chip has C2C breakdown %g", res.Breakdown.C2C)
	}
}

func TestTwoSyncsPerBlock(t *testing.T) {
	cfg := model.TinyLlama42M()
	res := runTP(t, cfg, 8, model.Autoregressive, 128, deploy.Options{})
	if res.Syncs != 2*cfg.L {
		t.Fatalf("syncs = %d, want %d (two per block)", res.Syncs, 2*cfg.L)
	}
}

// The simulator runs the program it is given: a run executes as many
// synchronizations as the stages hold sync steps, each stage's counted
// once per block it repeats, under every strategy, in both modes and at
// 1, 2 and 8 chips (none where a replicated board has one chip with
// rows, none on a pipeline).
func TestSyncsFollowTheProgram(t *testing.T) {
	cfg := model.TinyLlama42M()
	builders := []func(model.Config, int) (*partition.Plan, error){
		partition.NewTensorParallel, partition.NewReplicated, partition.NewPipeline,
	}
	for _, build := range builders {
		for _, mode := range []model.Mode{model.Prompt, model.Autoregressive} {
			for _, n := range []int{1, 2, 8} {
				p, err := build(cfg, n)
				if err != nil {
					t.Fatal(err)
				}
				d, err := deploy.NewBatched(p, hw.Siracusa(), mode, model.PaperSeqLen(cfg, mode), 1, deploy.Options{})
				if err != nil {
					t.Fatal(err)
				}
				want := 0
				for _, st := range d.Stages {
					for _, step := range st.Steps {
						if step.Sync != nil {
							want += st.Blocks
						}
					}
				}
				res, err := Run(d)
				if err != nil {
					t.Fatal(err)
				}
				if res.Syncs != want {
					t.Errorf("%v %v n=%d: %d syncs, the program holds %d", p.Strategy, mode, n, res.Syncs, want)
				}
			}
		}
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		res := runTP(t, model.TinyLlama42M(), n, model.Autoregressive, 128, deploy.Options{})
		if d := math.Abs(res.Breakdown.Total() - res.TotalCycles); d > 1e-6*res.TotalCycles+1e-9 {
			t.Errorf("n=%d: breakdown %g != total %g", n, res.Breakdown.Total(), res.TotalCycles)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := runTP(t, model.TinyLlama42M(), 8, model.Autoregressive, 128, deploy.Options{})
	b := runTP(t, model.TinyLlama42M(), 8, model.Autoregressive, 128, deploy.Options{})
	if a.TotalCycles != b.TotalCycles || a.TotalC2CBytes != b.TotalC2CBytes {
		t.Fatal("simulation is not deterministic")
	}
}

// The headline reproduction target: the 8-chip system is super-linear
// (speedup > 8) in autoregressive mode because L3 leaves the critical
// path, while 2 and 4 chips stay roughly linear.
func TestTinyLlamaAutoregressiveSuperLinearAt8(t *testing.T) {
	cfg := model.TinyLlama42M()
	s := model.PaperSeqLen(cfg, model.Autoregressive)
	base := runTP(t, cfg, 1, model.Autoregressive, s, deploy.Options{}).TotalCycles
	speedup := func(n int) float64 {
		return base / runTP(t, cfg, n, model.Autoregressive, s, deploy.Options{}).TotalCycles
	}
	s2, s4, s8 := speedup(2), speedup(4), speedup(8)
	if s2 < 1.5 || s2 > 3 {
		t.Errorf("2-chip speedup %g out of linear range", s2)
	}
	if s4 < 3 || s4 > 6 {
		t.Errorf("4-chip speedup %g out of linear range", s4)
	}
	if s8 <= 8 {
		t.Errorf("8-chip speedup %g is not super-linear (paper: 26.1)", s8)
	}
	if s8 < 15 || s8 > 40 {
		t.Errorf("8-chip speedup %g far from paper's 26.1×", s8)
	}
}

func TestRuntimeBreakdownShapes(t *testing.T) {
	cfg := model.TinyLlama42M()
	s := model.PaperSeqLen(cfg, model.Autoregressive)
	// 1–4 chips: L3 dominates runtime (paper Fig. 4a).
	for _, n := range []int{1, 2, 4} {
		res := runTP(t, cfg, n, model.Autoregressive, s, deploy.Options{})
		if res.Breakdown.L3 < res.Breakdown.Compute {
			t.Errorf("n=%d: L3 %g not dominant over compute %g", n, res.Breakdown.L3, res.Breakdown.Compute)
		}
	}
	// 8 chips: no L3 on the critical path.
	res := runTP(t, cfg, 8, model.Autoregressive, s, deploy.Options{})
	if res.Breakdown.L3 != 0 {
		t.Errorf("8-chip L3 breakdown %g, want 0 (double-buffered)", res.Breakdown.L3)
	}
	if res.Breakdown.Compute <= 0 || res.Breakdown.L2L1 <= 0 {
		t.Error("8-chip compute/L2L1 breakdown missing")
	}
}

// The paper's Fig. 4 contrast: autoregressive mode is memory-bound,
// prompt mode much less so. We check it two ways: the single-chip L3
// share is larger in AR than in prompt mode, and once off-chip traffic
// is gone (8 chips) computation is the largest prompt-mode component.
func TestPromptModeLessMemoryBound(t *testing.T) {
	cfg := model.TinyLlama42M()
	ar := runTP(t, cfg, 1, model.Autoregressive, 128, deploy.Options{})
	pr := runTP(t, cfg, 1, model.Prompt, 16, deploy.Options{})
	arShare := ar.Breakdown.L3 / ar.TotalCycles
	prShare := pr.Breakdown.L3 / pr.TotalCycles
	if arShare <= prShare {
		t.Fatalf("AR L3 share %g not above prompt share %g", arShare, prShare)
	}
	p8 := runTP(t, cfg, 8, model.Prompt, 16, deploy.Options{})
	b := p8.Breakdown
	if b.Compute < b.L2L1 || b.Compute < b.C2C || b.Compute < b.L3 {
		t.Fatalf("8-chip prompt compute %g is not the largest component (%+v)", b.Compute, b)
	}
}

func TestPromptSuperLinearAt8(t *testing.T) {
	cfg := model.TinyLlama42M()
	base := runTP(t, cfg, 1, model.Prompt, 16, deploy.Options{}).TotalCycles
	got := base / runTP(t, cfg, 8, model.Prompt, 16, deploy.Options{}).TotalCycles
	if got <= 8 {
		t.Fatalf("prompt 8-chip speedup %g not super-linear (paper: 9.9)", got)
	}
	if got > 16 {
		t.Fatalf("prompt 8-chip speedup %g implausibly high vs paper's 9.9", got)
	}
}

func TestMobileBERTSuperLinearAt4(t *testing.T) {
	cfg := model.MobileBERT512()
	s := model.PaperSeqLen(cfg, model.Prompt)
	base := runTP(t, cfg, 1, model.Prompt, s, deploy.Options{}).TotalCycles
	got := base / runTP(t, cfg, 4, model.Prompt, s, deploy.Options{}).TotalCycles
	if got <= 4 {
		t.Fatalf("MobileBERT 4-chip speedup %g not super-linear (paper: 4.7)", got)
	}
	if got > 8 {
		t.Fatalf("MobileBERT 4-chip speedup %g implausibly high", got)
	}
}

func TestScaledModelQuasiLinearTo64(t *testing.T) {
	cfg := model.TinyLlamaScaled64()
	s := model.PaperSeqLen(cfg, model.Autoregressive)
	base := runTP(t, cfg, 1, model.Autoregressive, s, deploy.Options{}).TotalCycles
	speedup := func(n int) float64 {
		return base / runTP(t, cfg, n, model.Autoregressive, s, deploy.Options{}).TotalCycles
	}
	s8, s32, s64 := speedup(8), speedup(32), speedup(64)
	if s8 <= 8 || s32 <= 32 {
		t.Errorf("scaled speedups 8→%g 32→%g should be super-linear", s8, s32)
	}
	if s64 < 40 {
		t.Errorf("64-chip speedup %g too low (paper: 60.1)", s64)
	}
	if s64 > 100 {
		t.Errorf("64-chip speedup %g implausibly high (paper: 60.1)", s64)
	}
}

func TestPrefetchExposureAblation(t *testing.T) {
	cfg := model.TinyLlama42M()
	hidden := runTP(t, cfg, 8, model.Autoregressive, 128, deploy.Options{})
	exposed := runTP(t, cfg, 8, model.Autoregressive, 128, deploy.Options{PrefetchExposed: true})
	if exposed.TotalCycles <= hidden.TotalCycles {
		t.Fatalf("exposing prefetch did not increase runtime: %g vs %g",
			exposed.TotalCycles, hidden.TotalCycles)
	}
	// Same L3 bytes either way: exposure is accounting, not traffic.
	var hb, eb int64
	for i := range hidden.PerChip {
		hb += hidden.PerChip[i].L3Bytes
		eb += exposed.PerChip[i].L3Bytes
	}
	if hb != eb {
		t.Fatalf("prefetch accounting changed L3 bytes: %d vs %d", hb, eb)
	}
}

func TestL3BytesMatchDeployment(t *testing.T) {
	cfg := model.TinyLlama42M()
	for _, n := range []int{1, 4, 8} {
		p, _ := partition.NewTensorParallel(cfg, n)
		d, err := deploy.NewBatched(p, hw.Siracusa(), model.Autoregressive, 128, 1, deploy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(d)
		if err != nil {
			t.Fatal(err)
		}
		var got, planned int64
		for i := range res.PerChip {
			got += res.PerChip[i].L3Bytes - res.PerChip[i].L3SpillBytes
		}
		for _, c := range d.Chips {
			planned += c.StreamBytesPerBlock * int64(c.Blocks)
		}
		if got != planned {
			t.Errorf("n=%d: simulated L3 weight bytes %d != planned %d", n, got, planned)
		}
	}
}

func TestResidentAllNoL3(t *testing.T) {
	cfg := model.TinyLlamaScaled64()
	res := runTP(t, cfg, 64, model.Autoregressive, 128, deploy.Options{})
	for i := range res.PerChip {
		if res.PerChip[i].L3Bytes != 0 {
			t.Fatalf("chip %d moved %d L3 bytes under resident-all", i, res.PerChip[i].L3Bytes)
		}
	}
}

func TestC2CBytesMatchTreeFormula(t *testing.T) {
	cfg := model.TinyLlama42M()
	res := runTP(t, cfg, 8, model.Autoregressive, 128, deploy.Options{})
	// 2 syncs/block × 8 blocks, each (N-1)·(reduce+bcast) payloads of
	// 512 B each.
	want := int64(2*cfg.L) * int64(7) * int64(512+512)
	if res.TotalC2CBytes != want {
		t.Fatalf("C2C bytes %d, want %d", res.TotalC2CBytes, want)
	}
}

func TestReplicatedBaselineAutoregressiveNoSpeedup(t *testing.T) {
	cfg := model.TinyLlama42M()
	p, _ := partition.NewReplicated(cfg, 4)
	d, err := deploy.NewBatched(p, hw.Siracusa(), model.Autoregressive, 128, 1, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(d)
	if err != nil {
		t.Fatal(err)
	}
	single := runTP(t, cfg, 1, model.Autoregressive, 128, deploy.Options{})
	// Single-token replicated inference cannot parallelize: runtime
	// must be at least the single-chip runtime.
	if multi.TotalCycles < 0.9*single.TotalCycles {
		t.Fatalf("replicated AR runtime %g beat single chip %g", multi.TotalCycles, single.TotalCycles)
	}
}

func TestReplicatedPromptSplitsComputeButStreams(t *testing.T) {
	cfg := model.TinyLlama42M()
	p, _ := partition.NewReplicated(cfg, 4)
	d, err := deploy.NewBatched(p, hw.Siracusa(), model.Prompt, 16, 1, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d)
	if err != nil {
		t.Fatal(err)
	}
	// Every active chip still streams the full model from L3 (plus
	// activation spill — the baseline's off-chip reliance persists).
	var weights int64
	for i := range res.PerChip {
		weights += res.PerChip[i].L3Bytes - res.PerChip[i].L3SpillBytes
	}
	if weights != 4*int64(cfg.TotalWeightBytes()) {
		t.Fatalf("replicated L3 weight bytes %d, want 4× model (%d)", weights, 4*cfg.TotalWeightBytes())
	}
}

func TestPipelineSingleRequestLatencyNotImproved(t *testing.T) {
	cfg := model.TinyLlama42M()
	p, _ := partition.NewPipeline(cfg, 4)
	d, err := deploy.NewBatched(p, hw.Siracusa(), model.Prompt, 16, 1, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := Run(d)
	if err != nil {
		t.Fatal(err)
	}
	single := runTP(t, cfg, 1, model.Prompt, 16, deploy.Options{})
	// A single request travels the stages serially: no latency win
	// (the paper's argument against pipelining for smart glasses).
	if pipe.TotalCycles < 0.95*single.TotalCycles {
		t.Fatalf("pipeline latency %g unexpectedly beat single chip %g", pipe.TotalCycles, single.TotalCycles)
	}
	ours := runTP(t, cfg, 4, model.Prompt, 16, deploy.Options{})
	if ours.TotalCycles >= pipe.TotalCycles {
		t.Fatalf("tensor-parallel %g not faster than pipeline %g", ours.TotalCycles, pipe.TotalCycles)
	}
}

func TestStatsEndsConsistent(t *testing.T) {
	res := runTP(t, model.TinyLlama42M(), 8, model.Prompt, 16, deploy.Options{})
	for i := range res.PerChip {
		if res.PerChip[i].End > res.TotalCycles+1e-9 {
			t.Fatalf("chip %d end %g beyond total %g", i, res.PerChip[i].End, res.TotalCycles)
		}
	}
}

func BenchmarkSimulate8ChipAR(b *testing.B) {
	cfg := model.TinyLlama42M()
	p, _ := partition.NewTensorParallel(cfg, 8)
	d, _ := deploy.NewBatched(p, hw.Siracusa(), model.Autoregressive, 128, 1, deploy.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(d); err != nil {
			b.Fatal(err)
		}
	}
}

// The allocation-free hot path the package comment promises: a warm
// 64-chip run of every collective shape on a pinned arena allocates
// only its Result — the Result itself, LinkClasses, PerChip, the two
// backings of the per-chip class counters, ByClass and its per-link
// backing — so a tile's price tables stay in the arena and the hop
// counts in the interned schedule. The ring runs 8,064 hops per
// synchronization; the first case runs it on the clustered network
// with a degraded link: two link classes, each at a nominal and a
// degraded price. The arena's kernel price table holds the one program
// the board's 64 chips share. The arena comes from NewSim, not the
// package pool, which drops items under the race detector.
func TestWarmRingRunAllocatesOnlyItsResult(t *testing.T) {
	p, err := partition.NewTensorParallel(model.TinyLlamaScaled64(), 64)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		name string
		topo hw.Topology
		net  hw.Network
		opts deploy.Options
	}
	runs := []run{{name: "clustered-degraded-ring", topo: hw.TopoRing,
		net:  hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4),
		opts: deploy.Options{DegradedLinkChip: 5, DegradedLinkFactor: 0.5}}}
	for _, topo := range hw.Topologies() {
		runs = append(runs, run{name: topo.String(), topo: topo, net: hw.Siracusa().Network})
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			plat := hw.Siracusa()
			plat.Topology, plat.Network = r.topo, r.net
			d, err := deploy.NewBatched(p, plat, model.Prompt, 256, 1, r.opts)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSim()
			if _, err := s.RunTraced(d, nil); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := s.RunTraced(d, nil); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 7 {
				t.Errorf("a warm 64-chip %s run allocates %.0f times, want at most the Result's 7", r.name, allocs)
			}
			// Every chip of the uniform board runs one program, so the
			// arena prices its kernels once, not once per chip.
			if ops := len(d.Chips[0].Phases[0].Ops) + len(d.Chips[0].Phases[1].Ops); len(s.prices) != ops {
				t.Errorf("the price table holds %d kernel prices, want one program's %d", len(s.prices), ops)
			}
		})
	}
}
