// Command paperrepro regenerates every table and figure of the
// paper's evaluation section, printing each as an aligned text table
// with the paper's reference values alongside.
//
// Usage:
//
//	paperrepro              # everything
//	paperrepro -only fig4a  # one experiment: fig4a..fig6, table1,
//	                        # headline, ablations, topology, network
//	paperrepro -workers 4   # bound the evaluation concurrency
//	paperrepro -only network -cluster 4 -backhaul 10
//	                        # heterogeneous-link ablation: tree vs ring
//	                        # with a 10x-slower inter-cluster backhaul
//	paperrepro -cache-dir ~/.cache/mcudist -cache-stats
//	                        # persistent result store: a second run
//	                        # reports exact_sims=0 with identical output
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mcudist/internal/cli"
	"mcudist/internal/experiments"
	"mcudist/internal/report"
)

type step struct {
	name string
	run  func() error
}

func main() {
	only := flag.String("only", "", "run one experiment: fig4a fig4b fig4c fig5a fig5b fig5c fig6 table1 headline ablations topology network syncplan session extensions fleet memtier resilience")
	cluster := flag.Int("cluster", 4, "network ablation: chips per fast local cluster")
	backhaul := flag.Float64("backhaul", 10, "network ablation: inter-cluster bandwidth slowdown vs MIPI")
	sess := cli.Register()
	flag.Parse()
	// Only the network step reads -cluster and -backhaul.
	if *only != "" && !strings.EqualFold(*only, "network") {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "cluster" || f.Name == "backhaul" {
				fatal(fmt.Errorf("-%s applies to the network step only, not -only %s", f.Name, *only))
			}
		})
	}
	if err := sess.Start(); err != nil {
		fatal(err)
	}

	all := []step{
		{"fig4a", fig4(experiments.Fig4a, "paper: 26.1x at 8 chips, L3-bound below")},
		{"fig4b", fig4(experiments.Fig4b, "paper: 9.9x at 8 chips")},
		{"fig4c", fig4(experiments.Fig4c, "paper: 4.7x at 4 chips")},
		{"fig5a", fig5(experiments.Fig5a, "paper: 0.64 mJ at 8 chips; drop at 32+ scaled")},
		{"fig5b", fig5(experiments.Fig5b, "paper: energy reduced at 8 chips")},
		{"fig5c", fig5(experiments.Fig5c, "paper: slight energy increase at 4 chips")},
		{"fig6", fig6},
		{"table1", table1},
		{"headline", headline},
		{"ablations", ablations},
		{"topology", topology},
		{"network", network(*cluster, *backhaul)},
		{"syncplan", syncplan},
		{"session", session},
		{"extensions", extensions},
		{"fleet", fleetStudy},
		{"memtier", memtier},
		{"resilience", resilienceStudy},
	}
	ran := 0
	for _, s := range all {
		if *only != "" && !strings.EqualFold(*only, s.name) {
			continue
		}
		if err := s.run(); err != nil {
			fatal(fmt.Errorf("%s: %w", s.name, err))
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fatal(fmt.Errorf("unknown experiment %q", *only))
	}
	if err := sess.Close(); err != nil {
		fatal(err)
	}
}

func fig4(f func() (*experiments.Fig4Result, error), note string) func() error {
	return func() error {
		res, err := f()
		if err != nil {
			return err
		}
		t := report.NewTable(res.Name+"  ("+note+")",
			"chips", "cycles", "speedup", "compute", "l2l1", "l3", "c2c", "tier")
		for _, r := range res.Rows {
			t.AddRow(r.Chips, r.Cycles, r.Speedup,
				r.Breakdown.Compute, r.Breakdown.L2L1, r.Breakdown.L3, r.Breakdown.C2C,
				r.Tier.String())
		}
		return t.Render(os.Stdout)
	}
}

func fig5(f func() (*experiments.Fig5Result, error), note string) func() error {
	return func() error {
		res, err := f()
		if err != nil {
			return err
		}
		t := report.NewTable(res.Name+"  ("+note+")",
			"chips", "model", "cycles", "energy_mJ", "EDP_Js", "tier")
		for _, p := range res.Points {
			kind := "original"
			if p.Scaled {
				kind = "scaled-64h"
			}
			t.AddRow(p.Chips, kind, p.Cycles, p.EnergyMJ, p.EDP, p.Tier.String())
		}
		return t.Render(os.Stdout)
	}
}

func fig6() error {
	res, err := experiments.Fig6()
	if err != nil {
		return err
	}
	t := report.NewTable("Fig6 scalability, scaled-up TinyLlama (paper: 60.1x AR at 64 chips)",
		"chips", "ar_speedup", "prompt_speedup", "linear")
	for _, r := range res.Rows {
		t.AddRow(r.Chips, r.AutoregressiveSpeedup, r.PromptSpeedup, r.Chips)
	}
	return t.Render(os.Stdout)
}

func table1() error {
	rows, err := experiments.Table1()
	if err != nil {
		return err
	}
	t := report.NewTable("Table I: partitioning strategies on TinyLlama, 8 chips",
		"work", "pipelining", "weight_dup", "ar_speedup", "prompt_speedup", "ar_energy_mJ")
	for _, r := range rows {
		t.AddRow(r.Work, yn(r.Pipelining), yn(r.WeightDuplication),
			r.ARSpeedup, r.PromptSpeedup, r.EnergyARMJ)
	}
	return t.Render(os.Stdout)
}

func headline() error {
	h, err := experiments.RunHeadline()
	if err != nil {
		return err
	}
	p := experiments.PaperHeadline()
	t := report.NewTable("Headline metrics (paper vs measured)",
		"metric", "paper", "measured")
	t.AddRow("TinyLlama AR speedup, 8 chips", p.ARSpeedup8, h.ARSpeedup8)
	t.AddRow("TinyLlama AR energy @8 (mJ)", p.AREnergy8MJ, h.AREnergy8MJ)
	t.AddRow("TinyLlama AR latency @8 (ms)", p.ARLatency8MS, h.ARLatency8MS)
	t.AddRow("EDP improvement, 8 chips", p.AREDPImprovement, h.AREDPImprovement)
	t.AddRow("Energy ratio 8/1 chip", p.AREnergyRatio, h.AREnergyRatio)
	t.AddRow("TinyLlama prompt speedup, 8 chips", p.PromptSpeedup8, h.PromptSpeedup8)
	t.AddRow("MobileBERT speedup, 4 chips", p.MobileBERTSpeedup4, h.MobileBERTSpeedup4)
	t.AddRow("Scaled AR speedup, 64 chips", p.ScaledSpeedup64, h.ScaledSpeedup64)
	t.AddRow("Scaled energy reduction, 64 chips", p.ScaledEnergyReduction64, h.ScaledEnergyReduction64)
	t.AddRow("Syncs per block", p.SyncsPerBlock, h.SyncsPerBlock)
	t.AddRow("Weight replication factor", p.ReplicationFactor, h.ReplicationFactor)
	return t.Render(os.Stdout)
}

func ablations() error {
	kinds := []struct {
		name string
		run  func() ([]experiments.AblationRow, error)
	}{
		{"reduce topology (hierarchical vs flat)", experiments.AblationReduceTopology},
		{"reduce-tree group size at 64 chips", experiments.AblationGroupSize},
		{"partial exchange precision", experiments.AblationReducePrecision},
		{"prefetch accounting", experiments.AblationPrefetch},
		{"activation spill (MobileBERT)", experiments.AblationActivationSpill},
		{"link bandwidth scaling", experiments.AblationLinkBandwidth},
		{"degraded-link failure injection", experiments.AblationDegradedLink},
		{"compute straggler (thermal throttling)", experiments.AblationStraggler},
	}
	for _, k := range kinds {
		if err := ablationTable(k.name, k.run); err != nil {
			return err
		}
	}
	return nil
}

func ablationTable(name string, run func() ([]experiments.AblationRow, error)) error {
	rows, err := run()
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation: "+name,
		"config", "chips", "cycles", "c2c_cycles", "c2c_bytes", "energy_mJ")
	for _, r := range rows {
		t.AddRow(r.Label, r.Chips, r.Cycles, r.C2CCycles, r.C2CBytes, r.EnergyMJ)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// topology renders the interconnect-shape ablation: all four
// topologies (hierarchical tree, flat star, ring all-reduce,
// fully-connected all-to-all) at the paper's chip counts.
func topology() error {
	return ablationTable("interconnect topology (tree / star / ring / fully-connected)",
		experiments.AblationTopologyShapes)
}

// network renders the heterogeneous-link ablation: tree vs ring on a
// uniform MIPI network and on a two-tier clustered board with a
// slowed inter-cluster backhaul, at the paper's 8/16/64-chip points.
func network(cluster int, backhaul float64) func() error {
	return func() error {
		return ablationTable(
			fmt.Sprintf("heterogeneous links (clusters of %d, %gx-slower backhaul)", cluster, backhaul),
			func() ([]experiments.AblationRow, error) {
				return experiments.AblationNetworkBackhaul(cluster, backhaul)
			})
	}
}

// syncplan renders the per-sync collective plan ablation: one prompt
// prefill + one decode step per row, the prefill-on-ring /
// decode-on-tree hybrid against both uniform baselines.
func syncplan() error {
	return ablationTable("per-sync collective plans (one prefill + one decode step)",
		experiments.AblationSyncPlan)
}

// session renders the joint-session autotuning study: the winning
// prefill+decode plan per (chip count, network profile), its margin
// over the best uniform session, and the predict-then-verify search's
// exact-simulation bill against the naive joint grid.
func session() error {
	rows, err := experiments.SessionAutotune()
	if err != nil {
		return err
	}
	t := report.NewTable("Joint-session autotuning (predict-then-verify over the class x topology grid)",
		"chips", "network", "plan", "cycles", "best_uniform", "margin", "rank_acc", "exact_sims", "grid_sims")
	for _, r := range rows {
		t.AddRow(r.Chips, r.Network, r.Plan, r.Cycles, r.BestUniform, r.Margin,
			r.RankAccuracy, r.ExactSims, r.GridSims)
	}
	return t.Render(os.Stdout)
}

func extensions() error {
	grid, err := experiments.ExtensionFullGrid()
	if err != nil {
		return err
	}
	t := report.NewTable("Extension: full chip grid (crossover hides inside the paper's 4-8 gap)",
		"chips", "cycles", "speedup", "tier")
	for _, r := range grid {
		t.AddRow(r.Chips, r.Cycles, r.Speedup, r.Tier)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	seq, err := experiments.ExtensionSeqLenStudy()
	if err != nil {
		return err
	}
	t = report.NewTable("Extension: prompt-length crossover (memory- to compute-bound)",
		"seqlen", "speedup_8chips", "l3_share_1chip")
	for _, r := range seq {
		t.AddRow(r.SeqLen, r.Speedup8, r.L3Share1)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	ctx, err := experiments.ExtensionContextStudy()
	if err != nil {
		return err
	}
	t = report.NewTable("Extension: autoregressive context sweep at 8 chips",
		"context", "cycles", "energy_mJ", "tier")
	for _, r := range ctx {
		t.AddRow(r.Context, r.CyclesPer8, r.EnergyMJ8, r.Tier)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	head, err := experiments.ExtensionLMHeadStudy()
	if err != nil {
		return err
	}
	t = report.NewTable("Extension: LM-head cost the paper's block-only measurement excludes",
		"chips", "blocks_cycles", "head_cycles", "head_share")
	for _, r := range head {
		t.AddRow(r.Chips, r.BlocksCycles, r.HeadCycles, r.HeadShare)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	gqa, err := experiments.ExtensionGQAStudy()
	if err != nil {
		return err
	}
	t = report.NewTable("Extension: grouped-query attention vs full MHA (SmolLM-135M geometry)",
		"variant", "kv_bytes_per_block", "block_MiB", "max_chips", "min_chips_no_l3", "best_latency_ms")
	for _, r := range gqa {
		t.AddRow(r.Variant, r.KVCacheBytes, r.BlockWeightMiB, r.MaxChips, r.MinChipsNoL3, r.LatencyMSAtBest)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	batch, err := experiments.ExtensionBatchingStudy()
	if err != nil {
		return err
	}
	t = report.NewTable("Extension: batching vs pipelining (the Table I argument, quantified)",
		"batch", "ours_latency", "pipe_last_latency", "ours_req_per_s", "pipe_req_per_s")
	for _, r := range batch {
		t.AddRow(r.Batch, r.OursLatencyCycles, r.PipeLastLatency, r.OursThroughput, r.PipeThroughput)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	coll, err := experiments.ExtensionCollectiveStudy()
	if err != nil {
		return err
	}
	t = report.NewTable("Extension: hierarchical tree vs ring all-reduce",
		"chips", "payload_B", "tree_cycles", "ring_cycles")
	for _, r := range coll {
		t.AddRow(r.Chips, r.Payload, r.TreeCycles, r.RingCycles)
	}
	return t.Render(os.Stdout)
}

// fleetStudy renders the fleet-serving studies: the saturation curve
// of the two-group 64-chip fleet (latency vs offered load, knee
// identified) and the continuous-batching ablation. Both are
// deterministic fixtures — seeded traces, so the tables are
// byte-identical across runs and worker counts.
func fleetStudy() error {
	sat, err := experiments.FleetSaturation()
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Fleet saturation, 2x64-chip groups (knee at %g req/s; plan %s, %.2fx)",
			sat.KneePerSec, sat.Plan, sat.PlanMargin),
		"offered_req_s", "achieved_req_s", "p50_ms", "p99_ms", "tok_s",
		"J_per_req", "mean_queue", "mean_batch", "util", "saturated")
	for _, r := range sat.Rows {
		t.AddRow(r.OfferedPerSec, r.AchievedPerSec,
			r.P50LatencySeconds*1e3, r.P99LatencySeconds*1e3, r.TokensPerSecond,
			r.EnergyPerRequestJoules, r.MeanQueueDepth, r.MeanBatch,
			r.Utilization, yn(r.Saturated))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	rows, err := experiments.FleetBatchingAblation()
	if err != nil {
		return err
	}
	t = report.NewTable("Fleet continuous-batching ablation, 64 chips at saturation",
		"max_batch", "tok_s", "p99_ms", "J_per_req", "mean_batch", "margin")
	for _, r := range rows {
		t.AddRow(r.MaxBatch, r.TokensPerSecond, r.P99LatencySeconds*1e3,
			r.EnergyPerRequestJoules, r.MeanBatch, r.Margin)
	}
	return t.Render(os.Stdout)
}

// memtier renders the DRAM-backed memory-hierarchy studies: the
// streamed-tier cost comparison (flat exposed-bytes model vs the
// tiled DRAM channel, with prefetch-depth / bank-count / bandwidth
// knobs swept) and the per-family tiling autotuner, including the
// bigger-than-SRAM EdgeLlama point where the attention and FFN layer
// families prefer different tile shapes.
func memtier() error {
	rows, err := experiments.MemTierStudy()
	if err != nil {
		return err
	}
	t := report.NewTable("Memory-hierarchy cost tier, streamed TinyLlama on 2 chips",
		"config", "mode", "cycles", "l3_cycles", "l3_bytes", "energy_mJ", "tier")
	for _, r := range rows {
		t.AddRow(r.Label, r.Mode, r.Cycles, r.L3Cycles, r.L3Bytes, r.EnergyMJ, r.Tier.String())
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	tiles, err := experiments.MemTilingAutotune()
	if err != nil {
		return err
	}
	t = report.NewTable("Per-family tiling autotune (zero-probe predict-then-verify over the pair grid)",
		"model", "chips", "attn", "ffn", "cycles", "best_uniform", "margin", "energy_margin",
		"rank_acc", "exact_sims", "grid_sims")
	for _, r := range tiles {
		t.AddRow(r.Model, r.Chips, r.Attn, r.FFN, r.Cycles, r.BestUniform, r.Margin,
			r.EnergyMargin, r.RankAccuracy, r.ExactSims, r.GridSims)
	}
	return t.Render(os.Stdout)
}

// resilienceStudy renders the resilience-margin study: each fault
// family (dropped chip, 10x-degraded link, 2x compute straggler) at
// the 8- and 64-chip pinned operating points, racing the stale
// pristine-tuned plan against re-planning on the degraded board. The
// margin column is the latency factor a static fleet pays for not
// re-planning — >= 1 by construction, +Inf when the stale plan no
// longer validates on the degraded wiring.
func resilienceStudy() error {
	rows, err := experiments.ResilienceMargin()
	if err != nil {
		return err
	}
	t := report.NewTable("Resilience margin (stale plan vs re-planning on the degraded board)",
		"chips", "faults", "degraded_chips", "stale_plan", "static_cycles",
		"adopted_plan", "replan_pays", "margin", "margin_joules", "exact_sims")
	for _, r := range rows {
		static := any(r.StaticCycles)
		if r.StaticErr != "" {
			static = "infeasible"
		}
		t.AddRow(r.Chips, r.Faults, r.DegradedChips, r.StalePlan, static,
			r.AdoptedPlan, yn(r.ReplanPays), r.MarginCycles, r.MarginJoules, r.ExactSims)
	}
	return t.Render(os.Stdout)
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperrepro:", err)
	os.Exit(1)
}
