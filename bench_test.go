package mcudist

// Micro-benchmarks: the rungs under the repository benchmark. bench/
// (`bash bench/run.sh`) is the repo's one performance record: it
// repeats each workload, reports medians and spreads, and bounds every
// end-to-end metric in BENCHMARK.json. Each function here isolates the
// layer behind one of its workload metrics, for profiling with
// `go test -bench`: the six bench/README.md maps to a metric, plus
// BenchmarkResultStoreOpen (the store open-scan behind repro-warm) and
// BenchmarkFleetReplay100k (the warm replay behind fleet-replay). Each
// fails on its own check; CI runs every one once and fails when a rung
// is missing. The paper's numbers are pinned by
// cmd/paperrepro/testdata/paperrepro.txt and bench/testdata/suite.sha256,
// not here.

import (
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/experiments"
	"mcudist/internal/explore"
	"mcudist/internal/fleet"
	"mcudist/internal/hw"
	"mcudist/internal/interconnect"
	"mcudist/internal/model"
	"mcudist/internal/resultstore"
)

// BenchmarkAblationNetworkBackhaul runs the heterogeneous-link
// ablation (tree vs ring, uniform vs clusters-of-4 with a 10x-slower
// backhaul) — the schedule-lowering + per-class link hot path.
func BenchmarkAblationNetworkBackhaul(b *testing.B) {
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		evalpool.ResetCache()
		r, err := experiments.AblationNetworkBackhaul(4, 10)
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	for _, r := range rows {
		if r.Chips == 64 {
			b.ReportMetric(r.Cycles, r.Label+"_cycles_64chips")
		}
	}
}

// BenchmarkScheduleIntern compares a fresh schedule lowering against
// the intern-cache hit path that perfsim now rides — the 64-chip ring
// on the clustered network, the heaviest stock lowering (4032 reduce
// hops resolved per edge, plus validation).
func BenchmarkScheduleIntern(b *testing.B) {
	p := hw.Siracusa()
	p.Topology = hw.TopoRing
	p.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
	b.Run("lower", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := interconnect.NewSchedule(p, 64)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interned", func(b *testing.B) {
		if _, err := interconnect.CachedSchedule(p, 64); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := interconnect.CachedSchedule(p, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSingleRun64Chips stresses the simulator at the largest
// system size, once per collective shape with its schedule interned:
// the paper's tree, and the ring and fully-connected exchange, whose
// 64-chip points set sweep-cold's tail (perfsim.run_us_p99,
// op_tail_ms).
func BenchmarkSingleRun64Chips(b *testing.B) {
	wl := core.Workload{Model: model.TinyLlamaScaled64(), Mode: model.Prompt}
	for _, topo := range []hw.Topology{hw.TopoTree, hw.TopoRing, hw.TopoFullyConnected} {
		b.Run(topo.String(), func(b *testing.B) {
			sys := core.DefaultSystem(64)
			sys.HW.Topology = topo
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(sys, wl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResultStoreWarm measures a store-backed warm replay: the
// paper's 1-8 chip TinyLlama sweep with the in-process memo dropped
// each iteration, so every report is deserialized from the persistent
// result store instead of simulated. The zero warm_sims metric is the
// point: a rerun of an already-simulated grid costs disk reads only.
func BenchmarkResultStoreWarm(b *testing.B) {
	store, err := resultstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	evalpool.SetStore(store)
	defer evalpool.SetStore(nil)
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Prompt}
	chips := []int{1, 2, 4, 8}
	evalpool.ResetCache()
	if _, err := evalpool.Eval(core.DefaultSystem(1), wl, chips); err != nil {
		b.Fatal(err)
	}
	simsBefore := evalpool.Simulations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evalpool.ResetCache()
		if _, err := evalpool.Eval(core.DefaultSystem(1), wl, chips); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if sims := evalpool.Simulations() - simsBefore; sims != 0 {
		b.Fatalf("warm replay ran %d simulations, want 0", sims)
	}
	b.ReportMetric(0, "warm_sims")
	b.ReportMetric(float64(store.Len()), "store_entries")
	b.ReportMetric(float64(store.SizeBytes()), "store_bytes")
}

// BenchmarkResultStoreOpen measures the store's read path at the size
// of a warm paper-suite cache: the open-scan of a 4000-entry log plus
// 400 Loads spread across it. Set-up appends one simulated report
// under 4000 distinct SeqLen keys, so it costs a single simulation.
// MB_per_s is log bytes indexed per second of the timed loop.
func BenchmarkResultStoreOpen(b *testing.B) {
	const entries, loads = 4000, 400
	dir := b.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	sys := core.DefaultSystem(8)
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	rep, err := core.Run(sys, wl)
	if err != nil {
		b.Fatal(err)
	}
	for n := 1; n <= entries; n++ {
		wl.SeqLen = n
		if err := store.Append(sys, wl, rep); err != nil {
			b.Fatal(err)
		}
	}
	size := store.SizeBytes()
	store.Close()
	var indexed int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := resultstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		for n := entries / loads; n <= entries; n += entries / loads {
			wl.SeqLen = n
			if _, ok := s.Load(sys, wl); !ok {
				b.Fatalf("entry SeqLen=%d missed", n)
			}
		}
		indexed = s.Len()
		s.Close()
	}
	b.StopTimer()
	if indexed != entries {
		b.Fatalf("open indexed %d entries, want %d", indexed, entries)
	}
	b.ReportMetric(float64(indexed), "entries")
	b.ReportMetric(float64(size)*float64(b.N)/1e6/b.Elapsed().Seconds(), "MB_per_s")
}

// BenchmarkFleetServingWarm measures the fleet scheduler itself: a
// 20k-request trace on the 8-chip group with every step shape
// pre-priced in the memory memo, so the numbers are pure scheduling —
// admission, batching, completion bookkeeping, metric assembly — not
// simulation. The serving metrics of the last iteration ride along.
func BenchmarkFleetServingWarm(b *testing.B) {
	opts := fleet.Options{
		Trace: fleet.PoissonTrace(fleet.TraceOptions{
			Requests: 20_000, RatePerSecond: 40, Seed: 9,
		}),
		System: core.DefaultSystem(8),
		Model:  model.TinyLlama42M(),
	}
	if _, err := fleet.Run(opts); err != nil {
		b.Fatal(err) // prime the memo
	}
	simsBefore := evalpool.Simulations()
	var res *fleet.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := fleet.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.StopTimer()
	if sims := evalpool.Simulations() - simsBefore; sims != 0 {
		b.Fatalf("warm fleet replay ran %d simulations, want 0", sims)
	}
	b.ReportMetric(float64(len(opts.Trace.Requests)*b.N)/b.Elapsed().Seconds(), "requests_per_wallsec")
	b.ReportMetric(res.Metrics.TokensPerSecond, "sim_tok_s")
	b.ReportMetric(res.Metrics.P99LatencySeconds*1e3, "sim_p99_ms")
	b.ReportMetric(res.Metrics.MeanBatch, "mean_batch")
}

// BenchmarkFleetReplay100k is the fleet rung of the per-layer ladder:
// a warm 100k-request replay at 200 req/s (the two-group fleet's
// knee) on two 64-chip TinyLlamaScaled64 groups. Every step price is
// already in the memo, so the op is the scheduler alone — admission,
// batching, step pricing from the fleet-local table, completion
// bookkeeping and metric assembly. It fails if any simulation runs.
func BenchmarkFleetReplay100k(b *testing.B) {
	opts := fleet.Options{
		Trace: fleet.PoissonTrace(fleet.TraceOptions{
			Requests: 100_000, RatePerSecond: 200, Seed: 1,
		}),
		System: core.DefaultSystem(64),
		Model:  model.TinyLlamaScaled64(),
		Groups: 2,
	}
	if _, err := fleet.Run(opts); err != nil {
		b.Fatal(err) // prime the memo
	}
	simsBefore := evalpool.Simulations()
	var res *fleet.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := fleet.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.StopTimer()
	if sims := evalpool.Simulations() - simsBefore; sims != 0 {
		b.Fatalf("warm fleet replay ran %d simulations, want 0", sims)
	}
	m := res.Metrics
	b.ReportMetric(float64(len(opts.Trace.Requests)*b.N)/b.Elapsed().Seconds(), "requests_per_wallsec")
	b.ReportMetric(float64((m.PrefillSteps+m.DecodeSteps)*b.N)/b.Elapsed().Seconds(), "steps_per_wallsec")
	b.ReportMetric(float64(res.DistinctShapes), "distinct_shapes")
	b.ReportMetric(m.P99LatencySeconds*1e3, "sim_p99_ms")
}

// BenchmarkAutotuneTiling measures the per-family tiling autotuner on
// the bigger-than-SRAM operating point — EdgeLlama-1B paged from
// LPDDR5 across 8 chips, decoding. /cold empties the report cache each
// iteration. The ranking phase needs zero probe simulations (the
// closed-form makespans are exact, pinned by
// TestExecTiledMatchesPlanMakespan), so exact_sims counts only the
// verified top-K pairs plus the two best uniform tilings; sims_saved_x
// is the full pair grid over that bill (>= 5x is pinned by
// TestMemTilingAutotune). /warm fills the cache before timing, so it
// times what a warm paper pass pays: the lowering and the closed-form
// predictor, with every verification a cache hit (exact_sims 0).
func BenchmarkAutotuneTiling(b *testing.B) {
	sys := core.DefaultSystem(8)
	sys.HW.Mem = hw.LPDDR5()
	wl := core.Workload{Model: model.EdgeLlama1B(), Mode: model.Autoregressive}
	tune := func(b *testing.B) *explore.TilingResult {
		r, err := explore.AutotuneTiling(sys, wl, explore.TilingOptions{Candidates: 6})
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	b.Run("cold", func(b *testing.B) {
		var res *explore.TilingResult
		for i := 0; i < b.N; i++ {
			evalpool.ResetCache()
			res = tune(b)
		}
		b.ReportMetric(res.Margin, "tiling_margin")
		b.ReportMetric(res.RankAccuracy, "rank_accuracy")
		b.ReportMetric(float64(res.ExactSims), "exact_sims")
		b.ReportMetric(float64(res.GridSims), "grid_sims")
		b.ReportMetric(float64(res.GridSims)/float64(res.ExactSims), "sims_saved_x")
	})
	b.Run("warm", func(b *testing.B) {
		evalpool.ResetCache()
		tune(b)
		b.ResetTimer()
		var res *explore.TilingResult
		for i := 0; i < b.N; i++ {
			res = tune(b)
		}
		if res.ExactSims != 0 {
			b.Fatalf("warm autotune ran %d exact simulations, want 0", res.ExactSims)
		}
		b.ReportMetric(res.Margin, "tiling_margin")
	})
}
