package explore

import (
	"runtime"
	"sync/atomic"
	"testing"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

// bill is what a search paid and how well its predictor ranked: the
// distinct exact evaluations it needed, the size of the grid it
// searched (0 where the search reports none), and its RankAccuracy (0
// where it reports none).
type bill struct {
	sims       int
	candidates int
	rank       float64
}

// TestSearchBills pins every search's exact-evaluation bill at its
// reference operating point. Each row runs on a reset memo, so the
// count is the search's own distinct evaluations: ExactSims where the
// search reports it, the evalpool.Evaluations delta otherwise. A change
// to which points a search spells, which candidates it verifies, or how
// its predictions rank moves these numbers.
func TestSearchBills(t *testing.T) {
	tiny, scaled := model.TinyLlama42M(), model.TinyLlamaScaled64()
	var ring collective.Plan
	for _, mode := range []model.Mode{model.Prompt, model.Autoregressive} {
		for _, c := range collective.ActiveClasses(partition.TensorParallel, mode) {
			ring = ring.With(c, hw.TopoRing)
		}
	}
	slow := core.DefaultSystem(8)
	slow.HW.Network = hw.UniformNetwork(hw.MIPI().Slower(10))
	dram := core.DefaultSystem(2)
	dram.HW.Mem = hw.LPDDR5()

	session := func(sys core.System, cfg model.Config) func() (bill, error) {
		return func() (bill, error) {
			r, err := AutotuneSession(sys, cfg, SessionOptions{})
			if err != nil {
				return bill{}, err
			}
			return bill{r.ExactSims, r.Candidates, r.RankAccuracy}, nil
		}
	}
	frontier := func(cfg model.Config, chips int) func() (bill, error) {
		return func() (bill, error) {
			r, err := PlanFrontier(core.DefaultSystem(1), cfg, []int{chips}, PlanFrontierOptions{})
			if err != nil {
				return bill{}, err
			}
			return bill{r.ExactSims, r.Candidates, 0}, nil
		}
	}
	cases := []struct {
		name string
		run  func() (bill, error)
		want bill
	}{
		{"session/8-chip TinyLlama", session(core.DefaultSystem(8), tiny), bill{26, 256, 46.0 / 55}},
		{"session/64-chip scaled", session(core.DefaultSystem(64), scaled), bill{20, 256, 1}},
		{"plan frontier/8-chip TinyLlama", frontier(tiny, 8), bill{32, 256, 0}},
		{"plan frontier/64-chip scaled", frontier(scaled, 64), bill{28, 256, 0}},
		{"tiling/2-chip TinyLlama LPDDR5", func() (bill, error) {
			wl := core.Workload{Model: tiny, Mode: model.Autoregressive}
			r, err := AutotuneTiling(dram, wl, TilingOptions{Candidates: 6})
			if err != nil {
				return bill{}, err
			}
			return bill{r.ExactSims, r.Candidates, r.RankAccuracy}, nil
		}, bill{5, 36, 1}},
		{"plan/8-chip TinyLlama prompt", func() (bill, error) {
			before := evalpool.Evaluations()
			_, err := AutotunePlan(core.DefaultSystem(8), core.Workload{Model: tiny, Mode: model.Prompt})
			return bill{int(evalpool.Evaluations() - before), 0, 0}, err
		}, bill{16, 0, 0}},
		{"replan/8-chip TinyLlama, 10x slower links, stale uniform ring", func() (bill, error) {
			r, err := ReplanSession(slow, tiny, ring, SessionOptions{})
			if err != nil {
				return bill{}, err
			}
			return bill{r.ExactSims, 0, 0}, nil
		}, bill{28, 0, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			evalpool.ResetCache()
			got, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("bill = %+v, want %+v", got, c.want)
			}
		})
	}
}

// TestSessionBillIgnoresOverlappingFills runs AutotuneSession while an
// unrelated Map keeps filling fresh points on the same pool: the
// session bills only the points its own evaluations filled, so its
// ExactSims equals what it bills alone. The store is detached so every
// fill simulates and the two overlap; a run in which the unrelated Map
// happened to fill nothing while the session ran is repeated.
func TestSessionBillIgnoresOverlappingFills(t *testing.T) {
	store := evalpool.Default().Store()
	evalpool.SetStore(nil)
	t.Cleanup(func() { evalpool.SetStore(store) })
	sys, cfg := core.DefaultSystem(8), model.TinyLlama42M()
	evalpool.ResetCache()
	solo, err := AutotuneSession(sys, cfg, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Each unrelated point is new to the process: a 1-chip board at a
	// clock of its own, which no session point shares.
	pt := evalpool.Point{System: core.DefaultSystem(1), Workload: core.Workload{Model: cfg, Mode: model.Autoregressive}}
	for attempt := 1; ; attempt++ {
		evalpool.ResetCache()
		var filled atomic.Int64
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				pt.System.HW.Chip.FreqHz++
				_, n, err := evalpool.MapFills([]evalpool.Point{pt})
				if err != nil {
					t.Error(err)
					return
				}
				filled.Add(int64(n))
			}
		}()
		for filled.Load() == 0 {
			select {
			case <-done:
				t.Fatal("the unrelated Map stopped before it filled a point")
			default:
				runtime.Gosched()
			}
		}
		before := filled.Load()
		got, err := AutotuneSession(sys, cfg, SessionOptions{})
		beside := filled.Load() - before
		close(stop)
		<-done
		if err != nil {
			t.Fatal(err)
		}
		if beside == 0 && attempt < 10 {
			continue
		}
		if beside == 0 {
			t.Fatalf("the unrelated Map filled no point while the session ran, %d times", attempt)
		}
		if got.ExactSims != solo.ExactSims {
			t.Errorf("session billed %d exact sims beside %d unrelated fills, %d alone", got.ExactSims, beside, solo.ExactSims)
		}
		if got.Plan != solo.Plan || got.Cycles != solo.Cycles {
			t.Errorf("session picked %s (%g cycles) beside other work, %s (%g) alone", got.Plan, got.Cycles, solo.Plan, solo.Cycles)
		}
		return
	}
}
