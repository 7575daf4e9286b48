package fleet

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/model"
	"mcudist/internal/resilience"
)

// saturatedOptions offers an 8-chip TinyLlama group far more load than
// it serves, so the queue grows and every decode step runs at the cap.
func saturatedOptions(maxBatch int) Options {
	opts := smallOptions(600, 500)
	opts.MaxBatch = maxBatch
	return opts
}

// tiedOptions is TestTraceOrder's trace: every third request arrives
// with the one before it, and the whole trace is shuffled out of
// arrival order.
func tiedOptions() Options {
	opts := smallOptions(400, 60)
	opts.Groups = 2
	reqs := opts.Trace.Requests
	for i := 1; i < len(reqs); i += 3 {
		reqs[i].ArrivalSeconds = reqs[i-1].ArrivalSeconds
	}
	rand.New(rand.NewSource(3)).Shuffle(len(reqs), func(i, j int) {
		reqs[i], reqs[j] = reqs[j], reqs[i]
	})
	return opts
}

// gridOptions is a prefill-only grid on two 8-chip TinyLlama groups:
// requests arrive in pairs at multiples of the 16-token prefill price,
// so a prefill often finishes at the very time the next pair arrives
// and the replay runs many simultaneous events, which must keep their
// FIFO order. With decodeEveryOther, every other request decodes two
// tokens.
func gridOptions(t *testing.T, decodeEveryOther bool) Options {
	t.Helper()
	sys, cfg := core.DefaultSystem(8), model.TinyLlama42M()
	rep, err := evalpool.Run(sys, core.Workload{Model: cfg, Mode: model.Prompt, SeqLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, 2000)
	for i := range reqs {
		reqs[i] = Request{ID: i, ArrivalSeconds: float64(i/2) * rep.Seconds, PromptLen: 16}
		if decodeEveryOther && i%2 == 1 {
			reqs[i].DecodeTokens = 2
		}
	}
	return Options{Trace: Trace{Requests: reqs}, System: sys, Model: cfg, Groups: 2}
}

// resultDigests pins the sha256 of every deterministic field of a
// fleet Result (digestResult) across the scheduler's paths: batch caps
// below and at saturation, several groups, tied and shuffled arrivals,
// a burst at t=0, prefill-only grids dense in simultaneous events,
// faults that slow an edge, drop a chip and re-plan, or land after the
// trace drains, the lazy pricing path, and a 64-chip autotuned group.
// Any drift in any metric's bits, or in the order simultaneous events
// are handled, trips them.
var resultDigests = []struct {
	name   string
	opts   func(t *testing.T) Options
	digest string
}{
	{"small-200-at-50", func(*testing.T) Options { return smallOptions(200, 50) }, "f43e926f35c60f3b0431da156f88b7be28034da273f1e63012becccf4d79fde2"},
	{"saturated-maxbatch-1", func(*testing.T) Options { return saturatedOptions(1) }, "8dfb60b7b9383ea298fd4db7bb18dd4812ea88f9740ccb823816a54fbbe56fff"},
	{"saturated-maxbatch-2", func(*testing.T) Options { return saturatedOptions(2) }, "1816641dd324fb2e9d2b615e651b08ef2a97a2e381d53f11c557acc53d140e5f"},
	{"saturated-maxbatch-3", func(*testing.T) Options { return saturatedOptions(3) }, "5219863534843446dcea482ee613039a811addbcb38203273c881a33828fc015"},
	{"groups-3-at-200", func(*testing.T) Options {
		opts := smallOptions(1000, 200)
		opts.Groups = 3
		return opts
	}, "ded931df4ca543e0a2c92806dab766e714c92fbbc3da63b9a4fd41dc10b11a6b"},
	{"shuffled-ties", func(*testing.T) Options { return tiedOptions() }, "3127ed106c78b641273573f3ecf767e0d36244b3d067c214a788776acb549f58"},
	{"all-at-zero", func(*testing.T) Options {
		opts := smallOptions(300, 50)
		opts.Groups = 2
		for i := range opts.Trace.Requests {
			opts.Trace.Requests[i].ArrivalSeconds = 0
		}
		return opts
	}, "4bc861594a3acfae5273a92765e1525d89d7f24fa15acf98a9381e873a058fd5"},
	{"prefill-grid", func(t *testing.T) Options { return gridOptions(t, false) }, "74a234fed999c80aba7de0f8429e67dc33620500975920c1c626a1a57812e24a"},
	{"prefill-grid-half-decode", func(t *testing.T) Options { return gridOptions(t, true) }, "88052e5d16147d0e4c3f8df5bbb6524b188e2ddbf02d1ffd18e4096707d98760"},
	{"fault-slow-edge", func(*testing.T) Options {
		opts := smallOptions(300, 30)
		opts.Groups = 2
		opts.Fault = &FaultPlan{AtSeconds: 3, Group: 1, Faults: []resilience.Fault{resilience.SlowEdge(0, 1, 10)}}
		return opts
	}, "cfbf5a210f8db7e6fed5070de5883d4104d9d114bdb9f46e1709c81d8c00208b"},
	{"fault-drop-replan", func(*testing.T) Options {
		opts := smallOptions(1000, 100)
		opts.Groups = 2
		opts.Fault = &FaultPlan{AtSeconds: 2, Group: 0, Faults: []resilience.Fault{resilience.DropChip(3)}, Replan: true}
		return opts
	}, "c077b3c691efee223c634b2bcdf139401b4a6ffd04884431ac80f9f7d509ba71"},
	{"fault-after-drain", func(*testing.T) Options {
		opts := smallOptions(300, 30)
		opts.Groups = 2
		opts.Fault = &FaultPlan{AtSeconds: 1e9, Group: 0, Faults: []resilience.Fault{resilience.DropChip(3)}}
		return opts
	}, "aef22798142d16596bc13ca4c5eb3bb1685427a1c6bc05dfb3701effab7e618e"},
	{"no-preprice", func(*testing.T) Options {
		opts := smallOptions(500, 40)
		opts.Groups = 2
		opts.NoPrePrice = true
		return opts
	}, "e5f950f3912a2efa304325c9f4626f716c32542802515f0e3759136bf00149b8"},
	{"scaled64-autotune", func(*testing.T) Options {
		return Options{
			Trace:    PoissonTrace(TraceOptions{Requests: 2000, RatePerSecond: 400, Seed: 11}),
			System:   core.DefaultSystem(64),
			Model:    model.TinyLlamaScaled64(),
			Groups:   2,
			Autotune: true,
		}
	}, "fc0fbae6c5787c6fe960924014a22be8be02ebdb48a61fe3e50132c2c4e9b931"},
}

// digestResult renders every field of res that is a pure function of
// the options: ExactSims and Evaluations count the process-wide memo's
// misses and are left out.
func digestResult(res *Result) string {
	s := fmt.Sprintf("%+v\n%d %+v %v %v %d %+v %v", res.Metrics, res.DistinctShapes,
		res.Plan, res.AutotuneMargin, res.FaultApplied, res.PostFaultChips,
		res.PostFaultPlan, res.PostFaultMargin)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))
}

func TestResultDigests(t *testing.T) {
	for _, c := range resultDigests {
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts(t)
			before := slices.Clone(opts.Trace.Requests)
			res := mustFleet(t, opts)
			if !slices.Equal(opts.Trace.Requests, before) {
				t.Error("Run modified the caller's trace")
			}
			if got := digestResult(res); got != c.digest {
				t.Errorf("result digest = %s, want %s", got, c.digest)
			}
		})
	}
}
