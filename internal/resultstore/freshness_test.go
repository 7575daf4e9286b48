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
	// v6 dropped the per-class split, Seconds and EDP from the body,
	// and no simulated bit.
	6: "103402bc15ed58e92c09031c47587bbb51f7dc41725ab28f239c4348276f4b7f",
	// v7 made a measured wiring a view (a key leaf and every wiring's
	// digest moved), and no simulated bit.
	7: "103402bc15ed58e92c09031c47587bbb51f7dc41725ab28f239c4348276f4b7f",
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

// A stored report comes back exactly as core.Run returned it, System
// and Workload included: Load restates the configuration and
// recomputes Seconds and EDP, so their bits must match core.Run's on
// every canary. After Close, Load misses.
func TestLoadRestatesTheReport(t *testing.T) {
	dir := t.TempDir()
	s, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		sys core.System
		wl  core.Workload
		rep *core.Report
	}
	var points []point
	for _, c := range canaries(t) {
		for _, mode := range []model.Mode{model.Prompt, model.Autoregressive} {
			wl := core.Workload{Model: c.cfg, Mode: mode}
			rep, err := core.Run(c.sys, wl)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Append(c.sys, wl, rep); err != nil {
				t.Fatal(err)
			}
			points = append(points, point{c.sys, wl, rep})
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = resultstore.Open(dir); err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		got, ok := s.Load(p.sys, p.wl)
		if !ok {
			t.Fatalf("%d chips %v: the stored report missed", p.sys.Chips, p.wl.Mode)
		}
		if g, w := fmt.Sprintf("%#v", *got), fmt.Sprintf("%#v", *p.rep); g != w {
			t.Errorf("%d chips %v: loaded\n%s\nwant core.Run's\n%s", p.sys.Chips, p.wl.Mode, g, w)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(points[0].sys, points[0].wl); ok {
		t.Error("Load served a report after Close")
	}
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
