// Package core is the orchestration layer: it wires a hardware
// description, a partition strategy, and a workload into the
// deployment planner, the performance simulator, and the energy
// model, returning one consolidated report per run. The public root
// package mcudist re-exports this API.
package core

import (
	"fmt"

	"mcudist/internal/deploy"
	"mcudist/internal/energy"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/perfsim"
)

// System describes the multi-chip platform and distribution strategy.
type System struct {
	// HW is the hardware parameter set (hw.Siracusa() by default).
	HW hw.Params
	// Chips is the number of MCUs.
	Chips int
	// Strategy selects the distribution scheme (TensorParallel is the
	// paper's).
	Strategy partition.Strategy
	// Options tunes the deployment planner.
	Options deploy.Options
}

// DefaultSystem returns the paper's system with n chips.
func DefaultSystem(n int) System {
	return System{HW: hw.Siracusa(), Chips: n, Strategy: partition.TensorParallel}
}

// Workload describes what to run.
type Workload struct {
	Model model.Config
	Mode  model.Mode
	// SeqLen is the sequence length (context length in autoregressive
	// mode); zero selects the paper's value for the model and mode.
	SeqLen int
	// Batch is the decode micro-batch width in autoregressive mode:
	// how many independent sessions generate one token each in this
	// step, sharing every weight read, kernel launch, and collective
	// synchronization (the continuous-batching step shape of the fleet
	// simulator). Zero or one is the single-session step the paper
	// evaluates, byte-identical to the pre-batch simulator. Batch is
	// part of the workload shape, so each width is simulated exactly
	// once per process (and once per persistent store lifetime).
	Batch int
}

// ResolvedSeqLen returns the effective sequence length.
func (w Workload) ResolvedSeqLen() int {
	if w.SeqLen > 0 {
		return w.SeqLen
	}
	return model.PaperSeqLen(w.Model, w.Mode)
}

// ResolvedBatch returns the effective decode micro-batch width.
func (w Workload) ResolvedBatch() int {
	if w.Batch > 1 {
		return w.Batch
	}
	return 1
}

// Report is the consolidated outcome of one simulated forward pass.
type Report struct {
	// The result store keys a report by its configuration and Load
	// restates it, so the stored body carries no echo of it.
	System   System   `json:"-"`
	Workload Workload `json:"-"`

	// Cycles is the total runtime in cluster cycles.
	Cycles float64
	// Seconds is the runtime in wall-clock seconds.
	Seconds float64
	// Breakdown attributes the runtime to compute / L2↔L1 / L3↔L2 /
	// chip-to-chip, the paper's Fig. 4 categories.
	Breakdown perfsim.Breakdown
	// Energy itemizes the analytical energy model.
	Energy energy.Report
	// EDP is the energy-delay product in joule-seconds.
	EDP float64
	// Tier is the weakest weight-placement tier across chips.
	Tier deploy.Tier
	// Syncs counts chip synchronizations (2 per block for the
	// paper's scheme).
	Syncs int
	// L3Bytes is total off-chip traffic; C2CBytes total link traffic.
	L3Bytes  int64
	C2CBytes int64
	// MaxChipBusyCycles is the busiest chip's compute + L2↔L1 + L3
	// cycles (for the pipeline, the slowest stage). The per-chip
	// counters behind it are in perfsim.Result.
	MaxChipBusyCycles float64
	// ByClass splits the synchronization and link accounting per
	// synchronization class (which classes ran, on which topology,
	// with how much traffic) — the attribution axis for per-sync
	// collective plans.
	ByClass []perfsim.ClassStats
	// C2CEnergyByClass itemizes the chip-to-chip energy per
	// synchronization class; it sums to Energy.C2C for the collective
	// strategies.
	C2CEnergyByClass []energy.ClassEnergy
}

// Run plans, simulates, and evaluates one workload on one system.
func Run(sys System, wl Workload) (*Report, error) {
	rep, _, err := run(sys, wl)
	return rep, err
}

// run is Run that also returns the simulator result the report
// summarizes.
func run(sys System, wl Workload) (*Report, *perfsim.Result, error) {
	if err := checkShape(sys, wl); err != nil {
		return nil, nil, err
	}
	if wl.Batch > 1 && wl.Mode != model.Autoregressive {
		return nil, nil, fmt.Errorf("core: micro-batch width %d needs autoregressive mode (prompt batching is the sequence length)", wl.Batch)
	}
	plan, err := buildPlan(sys, wl.Model)
	if err != nil {
		return nil, nil, err
	}
	s := wl.ResolvedSeqLen()
	d, err := deploy.NewBatched(plan, sys.HW, wl.Mode, s, wl.ResolvedBatch(), sys.Options)
	if err != nil {
		return nil, nil, err
	}
	res, err := perfsim.Run(d)
	if err != nil {
		return nil, nil, err
	}
	e := energy.FromResult(sys.HW, res)
	rep := &Report{
		System:    sys,
		Workload:  wl,
		Cycles:    res.TotalCycles,
		Seconds:   sys.HW.CyclesToSeconds(res.TotalCycles),
		Breakdown: res.Breakdown,
		Energy:    e,
		EDP:       e.Total() * sys.HW.CyclesToSeconds(res.TotalCycles),
		Tier:      d.WorstTier(),
		Syncs:     res.Syncs,
		C2CBytes:  res.TotalC2CBytes,
		ByClass:   res.ByClass,

		C2CEnergyByClass: energy.C2CByClass(sys.HW, res),
	}
	for i := range res.PerChip {
		st := &res.PerChip[i]
		rep.L3Bytes += st.L3Bytes
		if busy := st.ComputeCycles + st.L2L1Cycles + st.L3Cycles; busy > rep.MaxChipBusyCycles {
			rep.MaxChipBusyCycles = busy
		}
	}
	return rep, res, nil
}

// Lower runs just the deployment planner for a (system, workload)
// pair — no simulation — exposing the per-chip kernel sequences and
// memory-hierarchy tile plans. The tiling autotuner prices candidate
// tilings from this lowering's closed-form plan makespans instead of
// simulating them.
func Lower(sys System, wl Workload) (*deploy.Deployment, error) {
	if err := checkShape(sys, wl); err != nil {
		return nil, err
	}
	plan, err := buildPlan(sys, wl.Model)
	if err != nil {
		return nil, err
	}
	return deploy.NewBatched(plan, sys.HW, wl.Mode, wl.ResolvedSeqLen(), wl.ResolvedBatch(), sys.Options)
}

// checkShape rejects a chip count, micro-batch width or sequence
// length no lowering can honour, and option chips the system does not
// have. Zero widths and lengths select the defaults; a negative one is
// an error, not a silent default.
func checkShape(sys System, wl Workload) error {
	if sys.Chips <= 0 {
		return fmt.Errorf("core: chip count %d must be positive", sys.Chips)
	}
	if err := sys.CheckOptionChips(); err != nil {
		return err
	}
	if wl.Batch < 0 {
		return fmt.Errorf("core: micro-batch width %d must be non-negative", wl.Batch)
	}
	if wl.SeqLen < 0 {
		return fmt.Errorf("core: sequence length %d must be non-negative", wl.SeqLen)
	}
	return nil
}

// CheckOptionChips reports a set straggler or degraded-link factor on
// a chip outside [0, Chips): the simulator would throttle nothing and
// price the healthy board.
func (s System) CheckOptionChips() error {
	if o := s.Options; o.StragglerFactor > 0 && (o.StragglerChip < 0 || o.StragglerChip >= s.Chips) {
		return fmt.Errorf("core: straggler chip %d is out of range for %d chips", o.StragglerChip, s.Chips)
	}
	if o := s.Options; o.DegradedLinkFactor > 0 && (o.DegradedLinkChip < 0 || o.DegradedLinkChip >= s.Chips) {
		return fmt.Errorf("core: degraded-link chip %d is out of range for %d chips", o.DegradedLinkChip, s.Chips)
	}
	return nil
}

func buildPlan(sys System, cfg model.Config) (*partition.Plan, error) {
	switch sys.Strategy {
	case partition.TensorParallel:
		return partition.NewTensorParallel(cfg, sys.Chips)
	case partition.Replicated:
		return partition.NewReplicated(cfg, sys.Chips)
	case partition.Pipeline:
		return partition.NewPipeline(cfg, sys.Chips)
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", sys.Strategy)
	}
}

// Speedup returns base.Cycles / r.Cycles.
func Speedup(base, r *Report) float64 {
	return base.Cycles / r.Cycles
}
