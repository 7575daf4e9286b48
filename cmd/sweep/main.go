// Command sweep runs a workload across a list of chip counts and
// emits one CSV row per configuration — the raw data behind the
// paper's figures, ready for plotting.
//
// Usage:
//
//	sweep -model tinyllama -mode autoregressive -chips 1,2,4,8
//	sweep -model scaled -mode prompt -chips 1,2,4,8,16,32,64 -workers 4
//	sweep -model tinyllama -mode prompt -chips 8 -topology ring
//	sweep -model scaled -mode prompt -chips 16,64 -topology ring \
//	      -network clustered -cluster 4 -backhaul 10
//	sweep -model scaled -mode prompt -chips 64 -plan prefill=ring,decode=tree
//	sweep -model scaled -mode prompt -chips 16,64 -autotune
//	sweep -model scaled -chips 8,64 -autotune-session
//	sweep -model scaled -chips 64 -autotune-session -topk 16 \
//	      -network clustered -cluster 4 -backhaul 10
//	sweep -model scaled -chips 1,2,4,8 -cache-dir ~/.cache/mcudist -cache-stats
//	                        # second run answers from the persistent
//	                        # result store: exact_sims=0
//	sweep -model tinyllama -chips 2 -mem dram
//	sweep -model edgellama -chips 8 -mem dram -mem-banks 16 -tile 32x256
//	sweep -model edgellama -chips 8 -mem dram -tile 32x352 -ffn-tile 32x512
//	sweep -model edgellama -chips 8 -mem dram -autotune-tiling
//	sweep -fleet -model scaled -chips 64 -groups 2 -rates 50,100,200,400
//	sweep -fleet -chips 8 -max-batch 4 -requests 5000 -fleet-autotune
//	sweep -model tinyllama -chips 4 -netlist board.netlist
//	sweep -model tinyllama -chips 8 -fault slow:0-1x10
//	sweep -model scaled -chips 64 -replan -fault drop:3
//	sweep -fleet -chips 8 -groups 2 -fault drop:3 -fault-at 5 -fault-replan
//	sweep -model scaled -chips 8 -cache-dir /tmp/c -cache-compact /tmp/c.compact
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"mcudist/internal/cli"
	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/explore"
	"mcudist/internal/fleet"
	"mcudist/internal/hw"
	"mcudist/internal/memsim"
	"mcudist/internal/model"
	"mcudist/internal/report"
	"mcudist/internal/resilience"
	"mcudist/internal/resultstore"
)

// study is what the flags select: one base system (each point sets
// its chip count), one workload, the chip counts, and the inputs of
// the modes that read them.
type study struct {
	base   core.System
	wl     core.Workload
	chips  []int
	faults []resilience.Fault
	topK   int

	// -fleet only. The rates stay unparsed, because only the fleet
	// mode reads them; the trace and fleet options are templates each
	// rate fills in.
	rates string
	trace fleet.TraceOptions
	fleet fleet.Options
}

// at returns the base system with n chips.
func (s study) at(n int) core.System {
	sys := s.base
	sys.Chips = n
	return sys
}

func main() {
	var (
		modelName  = flag.String("model", "tinyllama", "model: tinyllama | scaled | mobilebert | smollm | edgellama")
		modeName   = flag.String("mode", "autoregressive", "mode: autoregressive | prompt")
		chipsList  = flag.String("chips", "1,2,4,8", "comma-separated chip counts")
		seqLen     = flag.Int("seqlen", 0, "sequence length (0 = paper default)")
		topoName   = flag.String("topology", "tree", "interconnect shape: tree | star | ring | fully-connected")
		netName    = flag.String("network", "uniform", "link-layer profile: uniform | clustered")
		backhaul   = flag.Float64("backhaul", 10, "clustered profile: inter-cluster bandwidth slowdown vs MIPI")
		cluster    = flag.Int("cluster", 4, "clustered profile: chips per fast local cluster")
		planSpec   = flag.String("plan", "", "per-sync collective plan, e.g. prefill=ring,decode=tree (empty = uniform -topology); plain and -fault sweeps only")
		autotune   = flag.Bool("autotune", false, "autotune the per-sync plan at each chip count and report it against the best uniform topology")
		session    = flag.Bool("autotune-session", false, "autotune prefill+decode jointly at each chip count (predict-then-verify over the full class x topology grid; -mode is ignored, -seqlen sets the prompt length)")
		topK       = flag.Int("topk", 0, "session autotuning: predicted-best candidates to verify exactly (0 = default)")
		fleetMode  = flag.Bool("fleet", false, "fleet-serving mode: sweep Poisson arrival rates over a chip-group fleet with continuous batching (one CSV row per rate; -topology, -network, -netlist, -mode and -seqlen are ignored)")
		rates      = flag.String("rates", "50,100,200,400,800,1600", "fleet: comma-separated offered arrival rates, requests per second")
		requests   = flag.Int("requests", 2000, "fleet: requests per trace")
		seed       = flag.Uint64("seed", 11, "fleet: trace RNG seed")
		groups     = flag.Int("groups", 1, "fleet: independent chip groups (each -chips wide)")
		maxBatch   = flag.Int("max-batch", 0, "fleet: decode micro-batch cap per group (0 = default 8; 1 = no batching)")
		fleetTune  = flag.Bool("fleet-autotune", false, "fleet: pick each group's collective plan with the session autotuner")
		fleetSlow  = flag.Bool("fleet-serial", false, "fleet: disable the parallel shape pre-pricing pass and price every step lazily inside the serial event loop (the reference path; output is byte-identical either way)")
		netlist    = flag.String("netlist", "", "measured per-edge wiring file (chips/class/link directives); selects the table network profile and overrides -network")
		faultSpec  = flag.String("fault", "", "fault injection spec, comma-separated: drop:CHIP | slow:FROM-TOxFACTOR | straggle:CHIPxFACTOR (e.g. drop:3,slow:0-1x10); degrades each swept system before pricing")
		replan     = flag.Bool("replan", false, "resilience study: autotune the pristine system at each chip count, apply -fault, and race the stale plan against re-planning on the degraded board (one CSV row per chip count)")
		faultAt    = flag.Float64("fault-at", 0, "fleet: fault time on the fleet clock in seconds (with -fleet -fault)")
		faultGroup = flag.Int("fault-group", 0, "fleet: chip group the -fault degrades")
		faultTune  = flag.Bool("fault-replan", false, "fleet: re-tune the degraded group's collective plan at fault time")
		memName    = flag.String("mem", "flat", "off-chip memory model: flat (legacy byte count) | dram (LPDDR5-backed tiled hierarchy)")
		memDepth   = flag.Int("mem-depth", 0, "dram: prefetch depth, weight tiles fetched ahead of compute (0 = preset)")
		memBanks   = flag.Int("mem-banks", 0, "dram: interleaved SRAM banks between prefetch and compute (0 = preset)")
		memBPC     = flag.Float64("mem-bpc", 0, "dram: channel payload bandwidth, bytes per cluster cycle (0 = preset)")
		memBurst   = flag.Int("mem-burst", 0, "dram: burst granule in bytes (0 = preset)")
		memSetup   = flag.Int("mem-burst-setup", -1, "dram: per-burst setup cycles (-1 = preset)")
		memPJ      = flag.Float64("mem-pj", 0, "dram: transfer energy in pJ per byte (0 = preset)")
		tileSpec   = flag.String("tile", "", "dram: weight-tile shape KxN for streamed GEMMs, e.g. 32x256 (empty = auto: largest tile fitting one stream-buffer slot)")
		ffnTile    = flag.String("ffn-tile", "", "dram: tile-shape override for the FFN layer family (empty = inherit -tile)")
		tiling     = flag.Bool("autotune-tiling", false, "dram: autotune per-family tile shapes at each chip count (predict-then-verify over the attention x FFN tiling grid) and report them against the best uniform tiling")
		compactDir = flag.String("cache-compact", "", "after the sweep, compact the persistent store into this directory, keeping only current-format entries (requires an attached store)")
	)
	sess := cli.Register()
	flag.Parse()
	if err := sess.Start(); err != nil {
		fatal(err)
	}

	var s study
	cfg, err := model.ByName(*modelName)
	if err != nil {
		fatal(err)
	}
	mode, err := model.ParseMode(*modeName)
	if err != nil {
		fatal(err)
	}
	s.wl = core.Workload{Model: cfg, Mode: mode, SeqLen: *seqLen}
	for _, part := range strings.Split(*chipsList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal(fmt.Errorf("bad chip count %q: %v", part, err))
		}
		s.chips = append(s.chips, n)
	}
	s.base = core.DefaultSystem(0)
	if s.base.HW.Topology, err = hw.ParseTopology(*topoName); err != nil {
		fatal(err)
	}
	if s.base.HW.Network, err = buildNetwork(*netName, *cluster, *backhaul); err != nil {
		fatal(err)
	}
	if *netlist != "" {
		nl, err := resilience.LoadNetlist(*netlist)
		if err != nil {
			fatal(err)
		}
		if s.base.HW.Network, err = nl.Network(); err != nil {
			fatal(err)
		}
	}
	if s.base.HW.Mem, err = buildMem(*memName, *memDepth, *memBanks, *memBPC, *memBurst, *memSetup, *memPJ, *tileSpec, *ffnTile); err != nil {
		fatal(err)
	}
	if s.base.Options.SyncPlan, err = collective.ParsePlan(*planSpec); err != nil {
		fatal(err)
	}
	s.topK = *topK
	s.rates = *rates
	s.trace = fleet.TraceOptions{Requests: *requests, Seed: *seed}
	s.fleet = fleet.Options{Model: cfg, Groups: *groups, MaxBatch: *maxBatch, Autotune: *fleetTune, NoPrePrice: *fleetSlow}
	if *faultSpec != "" {
		if s.faults, err = resilience.ParseFaults(*faultSpec); err != nil {
			fatal(err)
		}
		s.fleet.Fault = &fleet.FaultPlan{AtSeconds: *faultAt, Group: *faultGroup, Faults: s.faults, Replan: *faultTune}
	}

	// The modes are separate studies with their own columns: at most
	// one runs, -plan reaches none of them, and -fault only those that
	// degrade the board. With none set, the plain sweep runs.
	run := plainSweep
	if len(s.faults) > 0 {
		run = faultSweep
	}
	picked := ""
	for _, m := range []struct {
		flag  string
		on    bool
		fault bool
		run   func(study) (*report.Table, error)
	}{
		{"-autotune", *autotune, false, autotuneSweep},
		{"-autotune-session", *session, false, sessionSweep},
		{"-autotune-tiling", *tiling, false, tilingSweep},
		{"-replan", *replan, true, replanSweep},
		{"-fleet", *fleetMode, true, fleetSweep},
	} {
		switch {
		case !m.on:
			continue
		case picked != "":
			fatal(fmt.Errorf("%s and %s are separate modes: choose one", picked, m.flag))
		case !s.base.Options.SyncPlan.IsZero():
			fatal(fmt.Errorf("-plan applies to the plain and -fault sweeps, not %s", m.flag))
		case len(s.faults) > 0 && !m.fault:
			fatal(fmt.Errorf("-fault combines with the plain sweep, -replan or -fleet, not %s", m.flag))
		}
		picked, run = m.flag, m.run
	}
	if *replan && len(s.faults) == 0 {
		fatal(fmt.Errorf("-replan needs a -fault spec to degrade the board with"))
	}
	if *tiling && !s.base.HW.Mem.Enabled() {
		fatal(fmt.Errorf("-autotune-tiling needs the hierarchical memory model (-mem dram)"))
	}
	if *tiling && (*tileSpec != "" || *ffnTile != "") {
		fatal(fmt.Errorf("choose -autotune-tiling or explicit -tile/-ffn-tile, not both"))
	}

	t, err := run(s)
	if err != nil {
		fatal(err)
	}
	if err := t.CSV(os.Stdout); err != nil {
		fatal(err)
	}
	if err := compactCache(*compactDir, sess.Store); err != nil {
		fatal(err)
	}
	if err := sess.Close(); err != nil {
		fatal(err)
	}
}

// plainSweep emits one CSV row per chip count: the exact cost of the
// workload and its speedup over the first count.
func plainSweep(s study) (*report.Table, error) {
	reports, err := evalpool.Eval(s.base, s.wl, s.chips)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("", "chips", "cycles", "ms", "speedup",
		"compute_cycles", "l2l1_cycles", "l3_cycles", "c2c_cycles",
		"energy_mj", "edp_js", "tier")
	for i, r := range reports {
		t.AddRow(s.chips[i], r.Cycles, r.Seconds*1e3, core.Speedup(reports[0], r),
			r.Breakdown.Compute, r.Breakdown.L2L1, r.Breakdown.L3, r.Breakdown.C2C,
			r.Energy.Total()*1e3, r.EDP, r.Tier.String())
	}
	return t, nil
}

// faultSweep emits one CSV row per chip count: the exact cost of the
// workload on the board degraded by the -fault spec. The chips column
// is the pristine count; degraded_chips what survives the faults.
func faultSweep(s study) (*report.Table, error) {
	t := report.NewTable("", "chips", "degraded_chips", "cycles", "ms",
		"compute_cycles", "l2l1_cycles", "l3_cycles", "c2c_cycles",
		"energy_mj", "edp_js", "tier")
	for _, n := range s.chips {
		deg, _, err := resilience.Degrade(s.at(n), s.wl.Model, s.faults...)
		if err != nil {
			return nil, fmt.Errorf("%d chips: %w", n, err)
		}
		r, err := evalpool.Run(deg, s.wl)
		if err != nil {
			return nil, fmt.Errorf("%d chips: %w", n, err)
		}
		t.AddRow(n, deg.Chips, r.Cycles, r.Seconds*1e3,
			r.Breakdown.Compute, r.Breakdown.L2L1, r.Breakdown.L3, r.Breakdown.C2C,
			r.Energy.Total()*1e3, r.EDP, r.Tier.String())
	}
	return t, nil
}

// autotuneSweep emits one CSV row per chip count: the autotuned
// per-sync plan against the best uniform topology.
func autotuneSweep(s study) (*report.Table, error) {
	t := report.NewTable("", "chips", "plan", "cycles", "ms",
		"best_uniform", "uniform_cycles", "margin")
	for _, n := range s.chips {
		res, err := explore.AutotunePlan(s.at(n), s.wl)
		if err != nil {
			return nil, fmt.Errorf("%d chips: %w", n, err)
		}
		t.AddRow(n, planCell(res.Plan.String()),
			res.Report.Cycles, res.Report.Seconds*1e3,
			res.BestUniform.String(), res.UniformReport.Cycles, res.Margin)
	}
	return t, nil
}

// sessionSweep emits one CSV row per chip count: the jointly autotuned
// prefill+decode plan, its exact and predicted session cost, the best
// uniform session it beats, and the predict-then-verify search's
// exact-simulation bill against the naive joint grid.
func sessionSweep(s study) (*report.Table, error) {
	t := report.NewTable("", "chips", "plan", "cycles", "predicted_cycles",
		"best_uniform", "uniform_cycles", "margin", "rank_acc", "exact_sims", "grid_sims")
	for _, n := range s.chips {
		res, err := explore.AutotuneSession(s.at(n), s.wl.Model,
			explore.SessionOptions{TopK: s.topK, PromptSeqLen: s.wl.SeqLen})
		if err != nil {
			return nil, fmt.Errorf("%d chips: %w", n, err)
		}
		t.AddRow(n, planCell(res.Plan.String()),
			res.Cycles, res.PredictedCycles,
			res.BestUniform.String(), res.UniformCycles, res.Margin,
			res.RankAccuracy, res.ExactSims, res.GridSims)
	}
	return t, nil
}

// tilingSweep emits one CSV row per chip count: the autotuned
// per-family weight-tile shapes under the DRAM hierarchy against the
// best uniform tiling. The attn/ffn cells use the KxN spelling and
// paste straight back into -tile / -ffn-tile.
func tilingSweep(s study) (*report.Table, error) {
	t := report.NewTable("", "chips", "attn_tile", "ffn_tile", "cycles", "ms",
		"best_uniform", "uniform_cycles", "margin", "rank_acc", "exact_sims", "grid_sims")
	for _, n := range s.chips {
		res, err := explore.AutotuneTiling(s.at(n), s.wl, explore.TilingOptions{TopK: s.topK})
		if err != nil {
			return nil, fmt.Errorf("%d chips: %w", n, err)
		}
		t.AddRow(n, res.Attn.String(), res.FFN.String(),
			res.Cycles, res.Report.Seconds*1e3,
			res.BestUniform.String(), res.UniformCycles, res.Margin,
			res.RankAccuracy, res.ExactSims, res.GridSims)
	}
	return t, nil
}

// replanSweep emits one CSV row per chip count: the resilience margin
// of the -fault scenario — the stale pristine-tuned plan priced on the
// degraded board against re-planning for it.
func replanSweep(s study) (*report.Table, error) {
	t := report.NewTable("", "chips", "degraded_chips", "faults", "stale_plan", "static_cycles",
		"adopted_plan", "adopted_cycles", "replan_pays", "margin", "margin_joules", "exact_sims")
	for _, n := range s.chips {
		res, err := resilience.ReplanStudy(s.at(n), s.wl.Model, s.faults,
			explore.SessionOptions{TopK: s.topK, PromptSeqLen: s.wl.SeqLen})
		if err != nil {
			return nil, fmt.Errorf("%d chips: %w", n, err)
		}
		r := res.Replan
		static := 0.0
		if r.Static != nil {
			static = r.Static.Cycles
		}
		t.AddRow(n, res.DegradedChips, planCell(resilience.FaultsString(res.Faults)),
			planCell(res.Pristine.Plan.String()), static,
			planCell(r.AdoptedPlan.String()), r.AdoptedCycles,
			r.ReplanPays, r.MarginCycles, r.MarginJoules, r.ExactSims)
	}
	return t, nil
}

// fleetSweep emits one CSV row per offered arrival rate: the serving
// metrics of a chip-group fleet under a seeded Poisson trace. The
// group is the paper's system at the single -chips width with the
// -mem hierarchy. The plan column reads uniform unless
// -fleet-autotune picks a plan. A -fault plan adds its post-fault
// record in the trailing columns (zero rows when the fault never fired
// before the trace drained).
func fleetSweep(s study) (*report.Table, error) {
	if len(s.chips) != 1 {
		return nil, fmt.Errorf("-fleet takes a single -chips value (group width), got %v", s.chips)
	}
	// fleet.PoissonTrace defaults a non-positive rate or request count,
	// which would serve a different trace than the row is labelled with.
	if s.trace.Requests < 1 {
		return nil, fmt.Errorf("-requests %d must be at least 1", s.trace.Requests)
	}
	var rates []float64
	for _, part := range strings.Split(s.rates, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %v", part, err)
		}
		if !(r > 0) || math.IsInf(r, 1) {
			return nil, fmt.Errorf("-rates: rate %q must be positive and finite", part)
		}
		rates = append(rates, r)
	}
	// The CSV carries only the deterministic serving metrics — cache
	// counters go to stderr via -cache-stats — so a warm replay of the
	// same sweep is byte-identical (CI diffs cold vs warm).
	t := report.NewTable("", "offered_req_s", "achieved_req_s", "p50_s", "p99_s",
		"p50_ttft_s", "tok_s", "J_per_req", "mean_queue", "max_queue",
		"mean_batch", "util", "plan", "post_fault_chips", "post_fault_plan")
	opts := s.fleet
	opts.System = core.DefaultSystem(s.chips[0])
	opts.System.HW.Mem = s.base.HW.Mem
	for _, rate := range rates {
		trace := s.trace
		trace.RatePerSecond = rate
		opts.Trace = fleet.PoissonTrace(trace)
		res, err := fleet.Run(opts)
		if err != nil {
			return nil, fmt.Errorf("rate %g: %w", rate, err)
		}
		m := res.Metrics
		util := 0.0
		for _, u := range m.GroupUtilization {
			util += u
		}
		util /= float64(len(m.GroupUtilization))
		t.AddRow(rate, m.RequestsPerSecond, m.P50LatencySeconds, m.P99LatencySeconds,
			m.P50TTFTSeconds, m.TokensPerSecond, m.EnergyPerRequestJoules,
			m.MeanQueueDepth, m.MaxQueueDepth, m.MeanBatch, util,
			planCell(res.Plan.String()),
			res.PostFaultChips, planCell(res.PostFaultPlan.String()))
	}
	return t, nil
}

// planCell spells a comma-separated plan or fault list for one CSV
// cell: the commas would split the cell, so the items join with "+",
// which ParsePlan also accepts — a plan cell pastes straight back
// into -plan.
func planCell(s string) string { return strings.ReplaceAll(s, ",", "+") }

// buildMem maps the -mem* / -tile flags to a memory hierarchy. The
// dram profile starts from the LPDDR5 preset and applies only the
// knobs the user pinned, so a bare "-mem dram" reproduces the
// library's hw.LPDDR5() numbers; under the default flat profile every
// knob must stay at its default (the flat model has none of them).
func buildMem(name string, depth, banks int, bpc float64, burst, setup int, pj float64, tile, ffnTile string) (hw.MemHierarchy, error) {
	profile, err := hw.ParseMemProfile(name)
	if err != nil {
		return hw.MemHierarchy{}, err
	}
	if profile == hw.MemFlat {
		if depth != 0 || banks != 0 || bpc != 0 || burst != 0 || setup != -1 || pj != 0 || tile != "" || ffnTile != "" {
			return hw.MemHierarchy{}, fmt.Errorf("the flat memory model has no knobs: drop the -mem-*/-tile flags or select -mem dram")
		}
		return hw.MemHierarchy{}, nil
	}
	m := hw.LPDDR5()
	if depth != 0 {
		m.PrefetchDepth = depth
	}
	if banks != 0 {
		m.SRAMBanks = banks
	}
	if bpc != 0 {
		m.DRAMBytesPerCycle = bpc
	}
	if burst != 0 {
		m.DRAMBurstBytes = burst
	}
	if setup != -1 {
		m.DRAMBurstSetupCycles = setup
	}
	if pj != 0 {
		m.DRAMPJPerByte = pj
	}
	ta, err := memsim.ParseTiling(tile)
	if err != nil {
		return hw.MemHierarchy{}, err
	}
	tf, err := memsim.ParseTiling(ffnTile)
	if err != nil {
		return hw.MemHierarchy{}, err
	}
	m.TileK, m.TileN = ta.K, ta.N
	m.FFNTileK, m.FFNTileN = tf.K, tf.N
	if err := m.Validate(); err != nil {
		return hw.MemHierarchy{}, err
	}
	return m, nil
}

// buildNetwork maps the -network / -cluster / -backhaul flags to a
// network description. The per-edge table profile has no -network
// spelling (it needs a wiring list); -netlist reads one from a file.
func buildNetwork(name string, clusterSize int, backhaul float64) (hw.Network, error) {
	profile, err := hw.ParseNetworkProfile(name)
	if err != nil {
		return hw.Network{}, err
	}
	switch profile {
	case hw.NetUniform:
		return hw.UniformNetwork(hw.MIPI()), nil
	case hw.NetClustered:
		if backhaul < 1 {
			return hw.Network{}, fmt.Errorf("backhaul slowdown %g must be >= 1", backhaul)
		}
		return hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(backhaul), clusterSize), nil
	default:
		return hw.Network{}, fmt.Errorf("network profile %s has no flag spelling (use -netlist)", profile)
	}
}

// compactCache rewrites the attached store into dir, dropping entries
// whose digest version the current binary would never read — the
// garbage a long-lived CI cache accumulates across digest bumps.
func compactCache(dir string, store *resultstore.Store) error {
	if dir == "" {
		return nil
	}
	if store == nil {
		return fmt.Errorf("-cache-compact needs an attached store (-cache-dir or $MCUDIST_CACHE)")
	}
	dst, err := store.CompactTo(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cache-compact: entries=%d bytes=%d dir=%s\n",
		dst.Len(), dst.SizeBytes(), dst.Dir())
	return dst.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
