package fleet

import (
	"reflect"
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/model"
	"mcudist/internal/resultstore"
)

func smallOptions(requests int, rate float64) Options {
	return Options{
		Trace:  PoissonTrace(TraceOptions{Requests: requests, RatePerSecond: rate, Seed: 7}),
		System: core.DefaultSystem(8),
		Model:  model.TinyLlama42M(),
	}
}

func mustFleet(t *testing.T, opts Options) *Result {
	t.Helper()
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Every request must complete, and every reported metric must be
// populated and internally consistent.
func TestFleetBasics(t *testing.T) {
	res := mustFleet(t, smallOptions(200, 50))
	m := res.Metrics
	if m.Completed != m.Requests || m.Completed != 200 {
		t.Fatalf("completed %d of %d requests", m.Completed, m.Requests)
	}
	if m.P50LatencySeconds <= 0 || m.P99LatencySeconds < m.P50LatencySeconds {
		t.Errorf("latency percentiles inconsistent: p50=%g p99=%g", m.P50LatencySeconds, m.P99LatencySeconds)
	}
	if m.P50TTFTSeconds <= 0 || m.P50TTFTSeconds > m.P50LatencySeconds {
		t.Errorf("TTFT p50 %g outside (0, p50 latency %g]", m.P50TTFTSeconds, m.P50LatencySeconds)
	}
	if m.TokensPerSecond <= 0 || m.EnergyPerRequestJoules <= 0 {
		t.Errorf("throughput/energy not populated: tok/s=%g J/req=%g", m.TokensPerSecond, m.EnergyPerRequestJoules)
	}
	if m.MaxQueueDepth <= 0 || m.MeanQueueDepth <= 0 || len(m.QueueOverTime) == 0 {
		t.Errorf("queue accounting not populated: max=%d mean=%g samples=%d",
			m.MaxQueueDepth, m.MeanQueueDepth, len(m.QueueOverTime))
	}
	if len(m.GroupUtilization) != 1 || m.GroupUtilization[0] <= 0 || m.GroupUtilization[0] > 1 {
		t.Errorf("group utilization %v out of (0, 1]", m.GroupUtilization)
	}
	if m.PrefillSteps != 200 || m.DecodeSteps <= 0 {
		t.Errorf("step counts: prefill=%d decode=%d", m.PrefillSteps, m.DecodeSteps)
	}
	if m.MeanBatch <= 1 {
		t.Errorf("mean decode batch %g shows no batching at rate 50", m.MeanBatch)
	}
	if res.DistinctShapes <= 0 || uint64(res.DistinctShapes) != res.Evaluations {
		t.Errorf("distinct shapes %d != evaluations %d on an empty cache",
			res.DistinctShapes, res.Evaluations)
	}
}

// The fleet must be deterministic: the same seed yields byte-identical
// metrics across runs and across oracle worker counts (the scheduler
// is serial; workers only parallelize the oracle pool, whose results
// are byte-identical by evalpool's guarantee).
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	defer evalpool.SetWorkers(0)
	opts := smallOptions(500, 20)
	opts.Groups = 2

	evalpool.SetWorkers(1)
	serial := mustFleet(t, opts)
	again := mustFleet(t, opts)
	if !reflect.DeepEqual(serial.Metrics, again.Metrics) {
		t.Error("two runs at the same seed diverged")
	}

	evalpool.SetWorkers(8)
	parallel := mustFleet(t, opts)
	if !reflect.DeepEqual(serial.Metrics, parallel.Metrics) {
		t.Error("-workers 1 and -workers 8 fleet metrics diverged")
	}

	other := opts
	other.Trace = PoissonTrace(TraceOptions{Requests: 500, RatePerSecond: 20, Seed: 8})
	if reflect.DeepEqual(mustFleet(t, other).Metrics, serial.Metrics) {
		t.Error("different seeds produced identical metrics")
	}
}

// Oracle-hit accounting: a warm fleet run of >= 10k requests answers
// every step shape from the persistent store — zero exact simulations
// — with metrics byte-identical to the cold run that filled it. This
// extends the TestSuiteWarmStoreZeroSims pattern to the fleet path.
func TestFleetWarmStoreZeroSims(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	evalpool.SetStore(store)
	defer evalpool.SetStore(nil)

	opts := smallOptions(10_000, 200)
	cold := mustFleet(t, opts)
	if cold.ExactSims == 0 {
		t.Fatal("cold run on an empty store simulated nothing")
	}
	if cold.ExactSims != uint64(cold.DistinctShapes) {
		t.Errorf("cold run simulated %d times for %d distinct shapes",
			cold.ExactSims, cold.DistinctShapes)
	}

	evalpool.ResetCache()
	warm := mustFleet(t, opts)
	if warm.ExactSims != 0 {
		t.Errorf("warm run executed %d exact simulations, want 0", warm.ExactSims)
	}
	if !reflect.DeepEqual(warm.Metrics, cold.Metrics) {
		t.Error("warm metrics diverged from cold metrics")
	}
}

// The acceptance point: a warm-store fleet run of >= 100k requests on
// the 64-chip pinned configuration completes with zero exact
// simulations and reports the full serving-metric set.
func TestFleetWarm100kRequests64Chips(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	evalpool.SetStore(store)
	defer evalpool.SetStore(nil)

	opts := Options{
		Trace:  PoissonTrace(TraceOptions{Requests: 100_000, RatePerSecond: 2000, Seed: 42, MinDecode: 4, MaxDecode: 16}),
		System: core.DefaultSystem(64),
		Model:  model.TinyLlamaScaled64(),
		Groups: 4,
	}
	cold := mustFleet(t, opts)
	evalpool.ResetCache()
	warm := mustFleet(t, opts)

	if warm.ExactSims != 0 {
		t.Errorf("warm 100k-request run executed %d exact simulations, want 0", warm.ExactSims)
	}
	if !reflect.DeepEqual(warm.Metrics, cold.Metrics) {
		t.Error("warm metrics diverged from cold metrics")
	}
	m := warm.Metrics
	if m.Completed != 100_000 {
		t.Fatalf("completed %d of 100000 requests", m.Completed)
	}
	if m.P50LatencySeconds <= 0 || m.P99LatencySeconds <= 0 ||
		m.TokensPerSecond <= 0 || m.EnergyPerRequestJoules <= 0 ||
		m.MeanQueueDepth <= 0 || len(m.QueueOverTime) == 0 {
		t.Errorf("serving metrics not populated: %+v", m)
	}
	if warm.DistinctShapes > 200 {
		t.Errorf("100k requests priced %d distinct shapes; bucketing is not bounding the shape space",
			warm.DistinctShapes)
	}
}

// Continuous batching must beat the no-batching baseline on tokens/sec
// at saturation by a real margin: the decode micro-batch shares every
// weight read, kernel setup, and collective per step.
func TestFleetBatchingBeatsSequentialAtSaturation(t *testing.T) {
	// A decode-heavy trace (short prompts, long generations — the
	// chat-serving shape) offered far beyond single-session service
	// capacity, so both schedulers run saturated and the margin
	// measures the decode path. MaxBatch 4 stays on the resident tier
	// at 8 chips: width 8 would overflow L2 with KV and fall back to
	// streaming — the honest KV-pressure tradeoff the batch cap tunes.
	trace := PoissonTrace(TraceOptions{
		Requests: 400, RatePerSecond: 1000, Seed: 7,
		PromptLens: []int{16}, MinDecode: 32, MaxDecode: 64,
	})
	opts := Options{Trace: trace, System: core.DefaultSystem(8), Model: model.TinyLlama42M(), MaxBatch: 4}
	batched := mustFleet(t, opts)
	opts.MaxBatch = 1
	sequential := mustFleet(t, opts)

	margin := batched.Metrics.TokensPerSecond / sequential.Metrics.TokensPerSecond
	t.Logf("saturated tokens/sec: batched=%.1f sequential=%.1f margin=%.2fx",
		batched.Metrics.TokensPerSecond, sequential.Metrics.TokensPerSecond, margin)
	if margin < 1.5 {
		t.Errorf("continuous batching margin %.2fx below 1.5x at saturation", margin)
	}
	if batched.Metrics.MeanBatch <= 3 {
		t.Errorf("saturated mean batch %.2f did not approach the cap", batched.Metrics.MeanBatch)
	}
}

// Invalid configurations are rejected up front.
func TestFleetValidation(t *testing.T) {
	if _, err := Run(Options{System: core.DefaultSystem(8), Model: model.TinyLlama42M()}); err == nil {
		t.Error("empty trace accepted")
	}
	opts := smallOptions(10, 1)
	opts.System.Chips = 0
	if _, err := Run(opts); err == nil {
		t.Error("zero chips accepted")
	}
	opts = smallOptions(10, 1)
	opts.Trace.Requests[3].PromptLen = 0
	if _, err := Run(opts); err == nil {
		t.Error("zero prompt length accepted")
	}
	opts = smallOptions(10, 1)
	opts.Groups = -1
	if _, err := Run(opts); err == nil {
		t.Error("negative group count accepted")
	}
}

// The seeded Poisson generator is stable: the same options always
// produce the same trace, and the empirical mean inter-arrival time
// matches the requested rate.
func TestPoissonTraceDeterministicAndCalibrated(t *testing.T) {
	a := PoissonTrace(TraceOptions{Requests: 5000, RatePerSecond: 10, Seed: 3})
	b := PoissonTrace(TraceOptions{Requests: 5000, RatePerSecond: 10, Seed: 3})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds produced different traces")
	}
	last := a.Requests[len(a.Requests)-1].ArrivalSeconds
	meanGap := last / float64(len(a.Requests))
	if meanGap < 0.08 || meanGap > 0.12 {
		t.Errorf("mean inter-arrival %gs far from 0.1s at rate 10", meanGap)
	}
	for i := 1; i < len(a.Requests); i++ {
		if a.Requests[i].ArrivalSeconds < a.Requests[i-1].ArrivalSeconds {
			t.Fatal("arrivals not monotonic")
		}
	}
}
