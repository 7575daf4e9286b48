package core_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/perfsim"
	"mcudist/internal/trace"
)

// TestSimulationGridDigest pins the simulator's every output bit on a
// seeded grid of relationPoint draws, half of them on degraded boards:
// the sha256 of %#v of each perfsim.Result (per-chip and per-class
// counters included), and of the Chrome trace-event JSON of every
// 32nd point's traced run (about 1.7 s in all on a 2-vCPU host; every
// 16th would take about 3.8 s, over half of it in the encoding). It
// hashes perfsim.Result, not core.Report, so reshaping the report or
// the store moves neither digest. A hash pins and does not judge: a
// change that means to move simulated bits re-records both and says
// what moved.
func TestSimulationGridDigest(t *testing.T) {
	const (
		points       = 2048
		resultDigest = "ca026d80e149f6d4244ecaf02b9cd6b75f36f7a53129bf73c6122da49d2be1b2"
		traceDigest  = "0b3327e243614d3b0b31501d5dd1d2a7d92b29541f4b6ce81b816960e87dba3b"
	)
	r := rand.New(rand.NewPCG(2048, 0))
	results, traces := sha256.New(), sha256.New()
	for i := range points {
		sys, wl, err := relationPoint(r, i%2 == 1)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		d, err := core.Lower(sys, wl)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		res, err := perfsim.Run(d)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		fmt.Fprintf(results, "%#v\n", *res)
		if i%32 != 0 {
			continue
		}
		tl := &trace.Timeline{}
		if _, err := perfsim.RunTraced(d, tl); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if err := tl.ChromeJSON(traces, sys.HW.Chip.FreqHz); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprintf("%x", results.Sum(nil)); got != resultDigest {
		t.Errorf("result digest = %s, want %s", got, resultDigest)
	}
	if got := fmt.Sprintf("%x", traces.Sum(nil)); got != traceDigest {
		t.Errorf("trace digest = %s, want %s", got, traceDigest)
	}
}
