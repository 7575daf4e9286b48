package resultstore_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/resilience"
	"mcudist/internal/resultstore"
)

// canaryRows pins, per DigestVersion, the sha256 of the report bodies
// the store writes (json.Marshal of core.Report, one per line) for the
// canary configurations. A store serves a body for as long as its
// DigestVersion stands, so a change to simulated bits that keeps the
// version would serve stale reports from every store on disk, CI's
// persisted cache included. Such a change fails TestStoreFreshness
// until it bumps DigestVersion and records the new version's row; a
// row is never edited.
var canaryRows = map[int]string{
	4: "bc5429dd71cfa83f4867f6315d9a97502d0d56083b21dc7773f3cf6354cbbb0d",
	// v5 changed the key and the wiring records, and no simulated bit.
	5: "bc5429dd71cfa83f4867f6315d9a97502d0d56083b21dc7773f3cf6354cbbb0d",
}

// canary is one configuration the freshness guard simulates, in both
// modes.
type canary struct {
	sys core.System
	cfg model.Config
}

// canaries lists the paper's small and 64-chip points, a clustered
// ring, the pipeline, the DRAM tier, and the three 8-chip resilience
// boards (a dropped chip, a 10x-slow link and a 2x straggler).
func canaries(t *testing.T) []canary {
	t.Helper()
	tiny, scaled := model.TinyLlama42M(), model.TinyLlamaScaled64()
	ring := core.DefaultSystem(64)
	ring.HW.Topology = hw.TopoRing
	ring.HW.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
	pipe := core.DefaultSystem(8)
	pipe.Strategy = partition.Pipeline
	dram := core.DefaultSystem(8)
	dram.HW.Mem = hw.LPDDR5()
	out := []canary{
		{core.DefaultSystem(2), tiny}, {core.DefaultSystem(8), tiny}, {core.DefaultSystem(64), scaled},
		{ring, scaled}, {pipe, tiny}, {dram, model.EdgeLlama1B()},
	}
	for _, spec := range []string{"drop:3", "slow:0-1x10", "straggle:3x2"} {
		faults, err := resilience.ParseFaults(spec)
		if err != nil {
			t.Fatal(err)
		}
		deg, _, err := resilience.Degrade(core.DefaultSystem(8), tiny, faults...)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, canary{deg, tiny})
	}
	return out
}

func TestStoreFreshness(t *testing.T) {
	h := sha256.New()
	for _, c := range canaries(t) {
		for _, mode := range []model.Mode{model.Prompt, model.Autoregressive} {
			rep, err := core.Run(c.sys, core.Workload{Model: c.cfg, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(append(body, '\n'))
		}
	}
	got := fmt.Sprintf("%x", h.Sum(nil))
	want, ok := canaryRows[resultstore.DigestVersion]
	if !ok {
		t.Fatalf("DigestVersion %d has no canary row; record %s", resultstore.DigestVersion, got)
	}
	if got != want {
		t.Errorf("the canary reports hash to %s, but DigestVersion %d stored %s: simulated bits moved, "+
			"so bump DigestVersion and record the new version's row", got, resultstore.DigestVersion, want)
	}
}
