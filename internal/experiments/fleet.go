package experiments

import (
	"fmt"

	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/explore"
	"mcudist/internal/fleet"
	"mcudist/internal/model"
)

// FleetRow is one offered-load point of the fleet saturation study.
type FleetRow struct {
	// OfferedPerSec is the Poisson arrival rate; AchievedPerSec the
	// completed-request throughput over the makespan.
	OfferedPerSec  float64
	AchievedPerSec float64
	// Latency and serving metrics at this operating point.
	P50LatencySeconds      float64
	P99LatencySeconds      float64
	TokensPerSecond        float64
	EnergyPerRequestJoules float64
	MeanQueueDepth         float64
	MeanBatch              float64
	// Utilization is the mean chip-group utilization.
	Utilization float64
	// Saturated marks points where achieved throughput fell below 95%
	// of offered — the fleet can no longer keep up.
	Saturated bool
}

// FleetSaturationResult is the saturation study: the latency-vs-load
// curve and its knee.
type FleetSaturationResult struct {
	Rows []FleetRow
	// KneePerSec is the largest offered rate the fleet still served at
	// >= 95% of offered throughput (0 if every point saturated).
	KneePerSec float64
	// Plan is the per-group collective plan AutotuneSession picked
	// (the 64-chip prefill-ring/decode-tree hybrid) and PlanMargin its
	// win over the best uniform topology.
	Plan       string
	PlanMargin float64
}

// fleetSaturationRates is the offered-load ladder of the saturation
// study, in requests per second.
var fleetSaturationRates = []float64{50, 100, 200, 400, 800, 1600, 3200}

// FleetSaturation sweeps offered load on the paper's scaled 64-chip
// point served as a two-group fleet with continuous batching (the
// per-group plan picked by AutotuneSession) and identifies the
// saturation knee: the largest offered rate the fleet still serves at
// >= 95% of offered throughput. Below the knee latency is flat at the
// service floor; past it the queue grows without bound and p99
// latency is queueing delay, not service time.
func FleetSaturation() (*FleetSaturationResult, error) {
	sys, cfg := core.DefaultSystem(64), model.TinyLlamaScaled64()
	tuned, err := explore.AutotuneSession(sys, cfg, explore.SessionOptions{})
	if err != nil {
		return nil, fmt.Errorf("experiments: fleet autotune: %w", err)
	}
	sys.Options.SyncPlan = tuned.Plan
	// Each replay owns its state and prices its steps through the
	// shared memo, so the loads replay side by side.
	res := &FleetSaturationResult{
		Plan:       tuned.Plan.String(),
		PlanMargin: tuned.Margin,
		Rows:       make([]FleetRow, len(fleetSaturationRates)),
	}
	err = evalpool.Each(len(fleetSaturationRates), func(i int) error {
		rate := fleetSaturationRates[i]
		opts := fleet.Options{
			Trace: fleet.PoissonTrace(fleet.TraceOptions{
				Requests: 2000, RatePerSecond: rate, Seed: 11,
			}),
			System: sys,
			Model:  cfg,
			Groups: 2,
		}
		fr, err := fleet.Run(opts)
		if err != nil {
			return err
		}
		m := fr.Metrics
		util := 0.0
		for _, u := range m.GroupUtilization {
			util += u
		}
		util /= float64(len(m.GroupUtilization))
		res.Rows[i] = FleetRow{
			OfferedPerSec:          rate,
			AchievedPerSec:         m.RequestsPerSecond,
			P50LatencySeconds:      m.P50LatencySeconds,
			P99LatencySeconds:      m.P99LatencySeconds,
			TokensPerSecond:        m.TokensPerSecond,
			EnergyPerRequestJoules: m.EnergyPerRequestJoules,
			MeanQueueDepth:         m.MeanQueueDepth,
			MeanBatch:              m.MeanBatch,
			Utilization:            util,
			Saturated:              m.RequestsPerSecond < 0.95*rate,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		if !row.Saturated {
			res.KneePerSec = row.OfferedPerSec
		}
	}
	return res, nil
}

// FleetBatchRow is one batch-cap point of the continuous-batching
// ablation.
type FleetBatchRow struct {
	MaxBatch               int
	TokensPerSecond        float64
	P99LatencySeconds      float64
	EnergyPerRequestJoules float64
	MeanBatch              float64
	// Margin is this cap's tokens/sec over the MaxBatch=1 sequential
	// baseline.
	Margin float64
}

// FleetBatchingAblation saturates the 64-chip fleet at each decode
// micro-batch cap: MaxBatch=1 is the no-batching baseline (one
// session at a time), wider caps amortize weight reads, kernel setup,
// and collective synchronizations across sessions. Tokens/sec climbs
// with the cap; energy per request falls with it.
func FleetBatchingAblation() ([]FleetBatchRow, error) {
	trace := fleet.PoissonTrace(fleet.TraceOptions{
		Requests: 1500, RatePerSecond: 3000, Seed: 13,
		PromptLens: []int{16, 32}, MinDecode: 16, MaxDecode: 48,
	})
	// The replays share the trace and only read it, so the caps
	// replay side by side; the margins wait for the cap-1 baseline.
	caps := []int{1, 2, 4, 8}
	rows := make([]FleetBatchRow, len(caps))
	err := evalpool.Each(len(caps), func(i int) error {
		fr, err := fleet.Run(fleet.Options{
			Trace:    trace,
			System:   core.DefaultSystem(64),
			Model:    model.TinyLlamaScaled64(),
			MaxBatch: caps[i],
		})
		if err != nil {
			return err
		}
		m := fr.Metrics
		rows[i] = FleetBatchRow{
			MaxBatch:               caps[i],
			TokensPerSecond:        m.TokensPerSecond,
			P99LatencySeconds:      m.P99LatencySeconds,
			EnergyPerRequestJoules: m.EnergyPerRequestJoules,
			MeanBatch:              m.MeanBatch,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].Margin = rows[i].TokensPerSecond / rows[0].TokensPerSecond
	}
	return rows, nil
}
