package experiments

import (
	"fmt"

	"mcudist/internal/core"
	"mcudist/internal/explore"
	"mcudist/internal/hw"
	"mcudist/internal/model"
)

// SessionRow is one operating point of the joint-session autotuning
// study: the winning prefill+decode plan for one (chip count, network
// profile) pair, its margin over the best uniform session, and the
// search's exact-simulation bill against the naive joint grid.
type SessionRow struct {
	Chips   int
	Network string
	// Plan is the winning joint plan in ParsePlan syntax; Cycles its
	// exact session cost (one prompt prefill + one decode step).
	Plan   string
	Cycles float64
	// BestUniform / UniformCycles is the best single-topology session,
	// and Margin = UniformCycles / Cycles.
	BestUniform   string
	UniformCycles float64
	Margin        float64
	// RankAccuracy is the predictor's pairwise concordance on the
	// verified candidates; ExactSims vs GridSims is the
	// predict-then-verify saving over exhaustive joint enumeration.
	RankAccuracy float64
	ExactSims    int
	GridSims     int
}

// SessionAutotune runs the joint prefill+decode autotuner at the
// paper's 8-chip TinyLlama and 64-chip scaled operating points, on the
// uniform MIPI network and on the clustered-4x10 board — one plan per
// network profile, the ROADMAP's session/network follow-on.
//
// The shape of the result, pinned in TestSessionAutotune: at 64 chips
// on uniform links the joint winner is the prefill-ring/decode-tree
// hybrid at a ~1.28x margin, found for >5x fewer exact simulations
// than the 512-simulation joint grid; at 8 chips the ring takes both
// phases and the winner is the uniform ring at margin 1 — the
// autotuner pays exactly where the phase regimes diverge, and the
// predictor prices both situations correctly.
func SessionAutotune() ([]SessionRow, error) {
	scenarios := []struct {
		cfg   model.Config
		chips int
	}{
		{model.TinyLlama42M(), 8},
		{model.TinyLlamaScaled64(), 64},
	}
	nets := []hw.Network{
		hw.UniformNetwork(hw.MIPI()),
		hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4),
	}
	var rows []SessionRow
	for _, sc := range scenarios {
		for _, net := range nets {
			sys := core.DefaultSystem(sc.chips)
			sys.HW.Network = net
			res, err := explore.AutotuneSession(sys, sc.cfg, explore.SessionOptions{})
			if err != nil {
				return nil, fmt.Errorf("experiments: session autotune on %s: %w", net, err)
			}
			rows = append(rows, SessionRow{
				Chips:         sc.chips,
				Network:       net.String(),
				Plan:          res.Plan.String(),
				Cycles:        res.Cycles,
				BestUniform:   res.BestUniform.String(),
				UniformCycles: res.UniformCycles,
				Margin:        res.Margin,
				RankAccuracy:  res.RankAccuracy,
				ExactSims:     res.ExactSims,
				GridSims:      res.GridSims,
			})
		}
	}
	return rows, nil
}
