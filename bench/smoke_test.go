package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// benchmarkDef is the part of BENCHMARK.json the code must agree with.
type benchmarkDef struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

func loadBenchmarkDef(t *testing.T) benchmarkDef {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d benchmarkDef
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	d := loadBenchmarkDef(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames)
	}
	if d.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, code sizes its reps for %d", d.RunSeconds, runSeconds)
	}
	same := func(kind string, got []boundDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], code reports %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", d.EndToEnd, endToEnd)
	same("per_layer", d.PerLayer, perLayer)
	for _, m := range d.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end_to_end %s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
	}
}

// TestTimedRepsSupportTail requires each workload's fixed rep count to
// leave at least ten op samples beyond the percentile op_tail_ms
// reports.
func TestTimedRepsSupportTail(t *testing.T) {
	for _, name := range workloadNames {
		c := defaultConfig(name, 1)
		w, err := newWorkload(&c)
		if err != nil {
			t.Fatal(err)
		}
		opsPerRep := map[string]int{"sweep-cold": c.points, "repro-cold": 1, "repro-warm": 1, "fleet-replay": len(fleetRates)}[name]
		if got := supportedTail(c.reps * opsPerRep); got < w.tailPct() {
			t.Errorf("%s: %d reps of %d ops support p%g, op_tail_ms reports p%g", name, c.reps, opsPerRep, got, w.tailPct())
		}
	}
}

// TestSmokeEveryWorkload runs every workload at one timed and one
// traced rep on shrunken inputs. Every metric BENCHMARK.json names must
// print with its unit, no op may fail, and the spans must be valid
// Chrome trace-event JSON.
func TestSmokeEveryWorkload(t *testing.T) {
	d := loadBenchmarkDef(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			c := defaultConfig(name, 3)
			c.reps, c.warmup, c.setups = 1, 0, 1
			c.points, c.fillPoints, c.storePoints, c.fleetRequests = 32, 64, 32, 2000
			c.trace = true
			c.dir = t.TempDir()
			c.spansPath = filepath.Join(c.dir, "spans.json")
			var out bytes.Buffer
			res, err := measure(&c, &out, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%d of %d ops failed", res.failed, res.attempted)
			}
			for _, m := range append(d.EndToEnd, d.PerLayer...) {
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + ` \S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
				if !line.Match(out.Bytes()) {
					t.Errorf("metric %s [%s] not printed", m.Name, m.Unit)
				}
			}
			if !bytes.Contains(out.Bytes(), []byte("\nfailed_ratio 0 ratio\n")) {
				t.Error("failed_ratio is not 0")
			}
			raw, err := os.ReadFile(c.spansPath)
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &tr); err != nil {
				t.Fatalf("spans are not JSON: %v", err)
			}
			if len(tr.TraceEvents) == 0 {
				t.Fatal("no trace events")
			}
			for _, e := range tr.TraceEvents {
				if e.Phase != "X" || e.Name == "" || e.Dur < 0 {
					t.Fatalf("malformed trace event %+v", e)
				}
			}
		})
	}
}
