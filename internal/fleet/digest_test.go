package fleet

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/hw"
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

type digestRow struct {
	name   string
	opts   func(t *testing.T) Options
	digest string
}

// resultDigests pins the sha256 of every deterministic field of a
// fleet Result (digestResult) across the scheduler's paths: batch caps
// below and at saturation, several groups, tied and shuffled arrivals,
// a burst at t=0, prefill-only grids dense in simultaneous events,
// faults that slow an edge, drop a chip and re-plan, or land after the
// trace drains, the lazy pricing path, and a 64-chip autotuned group.
// Any drift in any metric's bits, or in the order simultaneous events
// are handled, trips them.
var resultDigests = []digestRow{
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

// gridSystems, gridRates, gridMaxBatch and gridFaults are axes of the
// sampled option grid; the trace seed and the group count are the
// others.
var (
	gridSystems = []struct {
		name string
		sys  func() core.System
		cfg  model.Config
	}{
		{"tinyllama8", func() core.System { return core.DefaultSystem(8) }, model.TinyLlama42M()},
		{"tinyllama4-ring", func() core.System {
			s := core.DefaultSystem(4)
			s.HW.Topology = hw.TopoRing
			return s
		}, model.TinyLlama42M()},
		{"scaled64", func() core.System { return core.DefaultSystem(64) }, model.TinyLlamaScaled64()},
	}
	gridRates    = []float64{5, 30, 100, 400, 2000}
	gridMaxBatch = []int{0, 1, 2, 3, 8}
	gridFaults   = []string{"none", "slow-edge", "drop", "drop-replan", "after-drain"}
)

// gridOptionSet draws option set i of the sampled grid: system, rate,
// seed, batch cap, group count and fault, each uniformly from a stream
// seeded with i, on a 300-request trace. A fault lands on the last
// group a third of the way through the arrivals.
func gridOptionSet(i int) (string, Options) {
	r := rand.New(rand.NewSource(int64(i)))
	sys := gridSystems[r.Intn(len(gridSystems))]
	rate := gridRates[r.Intn(len(gridRates))]
	seed := uint64(1 + r.Intn(2))
	opts := Options{
		Trace:    PoissonTrace(TraceOptions{Requests: 300, RatePerSecond: rate, Seed: seed}),
		System:   sys.sys(),
		Model:    sys.cfg,
		Groups:   r.Intn(5),
		MaxBatch: gridMaxBatch[r.Intn(len(gridMaxBatch))],
	}
	fault := gridFaults[r.Intn(len(gridFaults))]
	at := opts.Trace.Requests[len(opts.Trace.Requests)-1].ArrivalSeconds / 3
	group := max(opts.Groups-1, 0)
	switch fault {
	case "slow-edge":
		opts.Fault = &FaultPlan{AtSeconds: at, Group: group, Faults: []resilience.Fault{resilience.SlowEdge(0, 1, 10)}}
	case "drop", "drop-replan":
		opts.Fault = &FaultPlan{AtSeconds: at, Group: group, Faults: []resilience.Fault{resilience.DropChip(1)}, Replan: fault == "drop-replan"}
	case "after-drain":
		opts.Fault = &FaultPlan{AtSeconds: 1e9, Group: group, Faults: []resilience.Fault{resilience.DropChip(1)}}
	}
	name := fmt.Sprintf("grid-%02d-%s-r%g-s%d-b%d-g%d-%s", i, sys.name, rate, seed, opts.MaxBatch, opts.Groups, fault)
	return name, opts
}

// gridDigests pins digestResult on the first len(gridDigests) option
// sets of the sampled grid.
var gridDigests = []string{
	"7414958877e683761557083a282ddb26e22ed386c08e4004e3f010758db971ae",
	"a601c4035e7a7c1010675631825fbeb4f88b7a5fcd5a59ee6efb16aa5eb67431",
	"daeeb03cf8e16b54cb6661475af917bc38b3c8d979534f8481cf010de96ceb3d",
	"c9ce1f5f2bb36160900e383f697d97bcf5ba03347e4ed0f70d82792a3ce9c661",
	"b0091dc3d648c662bdc5ae4ec6c785fe309d6f45830d0b7c7dc8fc9f214170bb",
	"00179608d6f040447b854359023a4c91f257a140204088518fb9766c48bff1ac",
	"2946df4e95c21b39e07bed92b04173d6ed75ef6cc98b2c6990193cc1615c5a01",
	"4b8e5954b4933af7cacd02eccee42ea6cce55282f365b3ac921730508a8b8462",
	"a046fdf0b1ac1035a26a265a87ee9fc5d8fe65e06134272ba3ccc56b963cdce7",
	"0b564a00585dc0251900e2977172314cd55d0195555820dbaebe73a8faee4857",
	"41bd95eb75ca256d29e7b556b7e1b26d76c0cd196255c712b484ff82c25f99e2",
	"fe2fa2b37de04bbdbbe8466fb727935a029c17a0bc18c857773cd356e95d99ca",
	"6762f519d56c0a9071e769760da3240c1e3821d831e2ff8a3ae8079ed0a4df6e",
	"a4e75e2a98b96d474e84f05b190501f540b733716793a9419ceb8b19ae47e8e8",
	"e9967ae0b25a5fef31ca28e36a263072da66d4d3b7b301c6b8feaa6cfc4fa797",
	"6589a79e7559affcbbdda3b34e73beff62935316b4c277b11b25348f023a9fd3",
	"b769035d43e25542d65f0b139198b9b2ff8b70e8edc556a1a92cf261fd94e31c",
	"e5e9d4167638cacea685cacda5ff8257b535353ab774d447811848db81eafacf",
	"77ac27ac727dda122e356a280abbf91748580cf9f315d46b3f1ff229c6b867e5",
	"7921aa0b4e5e2a023c935e8d5b11739f6f2b40e34fa1c1dde66340ebfa1b7283",
	"6da02ab7c4830a7c4bc238f2a1c774bf11c37ce9ceec450c4aec022535f48ab7",
	"d1aa21aa035ff2887396d94bbb02ed43f7e6cadece2c0b8fc86b5f68246d59d4",
	"8ecaebc73a374086f2a0911a2f8c1fa4c066513fc8d01d4e196476c918a8b6bb",
	"35d6b34ae930f837504843e1d35abbb70931923dacb8aa2e3a63a755e80724a3",
	"495f24aa341f1e3d7e2a5aea396de93e03e4edd9ad7537233525f1eb493561a5",
	"6270568cf4412f7b985a80148d62439b5fb49e44e2123e5f8be6d0a59213085c",
	"4122ccca405e66f1fc9fcfa19de3a716ff94a5ae3b22204fc906551507f93517",
	"34e16c88955b7e17ec57439b0ad27d7a96de3f3b9e35da71fdaa88aee44f9995",
	"ae0961fe51e22f3d3154f5e5e32cf910267d5c48faca646fa4d47dc163cf5190",
	"8370cccf11ba5783a6cb63546917ea7a1c8bfc882d4a14599b799a543fb7415d",
	"d4f621fafa6b6bc476c42fdd5faac2def65e8efa60e138fe2a18a751a27bd6f1",
	"e07d8da3adba1e596d86056976e73547ee8d0deac0a4e03a8c7701dab5e057ff",
	"df271e639df28723167944797764e3065c3833ac2fdf414231f8d0886a80695b",
	"a5893705db0fca941f7ead5df29749ec7c6e12122e11a29eec58deb56df80779",
	"7414958877e683761557083a282ddb26e22ed386c08e4004e3f010758db971ae",
	"7d5b53c4d8174f7d02eb4bb7320e06c8d58b9ae8155ab22769fb90077f858dee",
	"d5c6ee71b07e622b9275a3f368b5aa7397fcc40872e3ebe2b9dc8b484c8c61d0",
	"0cf262f0648366858038747e6f0fc8c4259c68fa556821c8fdec39975c68ae50",
	"2cd4aa6a00fd7ba86dd73739c8a972f2693660e108b1273da2040c8f36f16986",
	"dd5990e3de0af36bc1f0ba13d449c3cab7defd0afce2a67457a507155849f8d0",
	"c38758259d244c0c80cfe732dfaaa10b8cdceb3fc1ca77d8516eeab479cec2f9",
	"472bfcc050f26dbf43226c3358923bdee30af84a2f55d36eb5e8d67172fea87a",
	"59d9843d6b5ef9d84933a65ba9e0b35433d5f45e67f10cb75815b44418fbb362",
	"6c16bd348d752bc8c35c6d69ff8da1fedcf07c3bf0c06e53d2aebe377825bcb1",
	"c77a8bc3e3857b99db74312d9f0648ebae84f64c9d01ba8cf9a3dfd8baaae5bf",
	"3e9f16e94781115619af702172882488f791c1f95f2f688e3ebe26ad336c0d15",
	"654d95780d7d6c5bc9abfc991c3244734ee4c8aa5e7d6e435e55ebf4b6a97250",
	"b9df72934e230029fcf740308e904ac6b2d7de0d594862216401093511446724",
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
	rows := slices.Clone(resultDigests)
	for i, digest := range gridDigests {
		name, opts := gridOptionSet(i)
		rows = append(rows, digestRow{name, func(*testing.T) Options { return opts }, digest})
	}
	for _, c := range rows {
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
