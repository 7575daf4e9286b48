package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWorsening(t *testing.T) {
	for _, tc := range []struct {
		a, b   float64
		better string
		want   float64
	}{
		{100, 110, "lower", 0.1},
		{100, 90, "lower", -0.1},
		{100, 90, "higher", 0.1},
		{100, 110, "higher", -0.1},
		{5, 5, "lower", 0},
		{0, 0, "higher", 0},
		{0, 1, "lower", math.Inf(1)},
		{0, 1, "higher", math.Inf(-1)},
	} {
		if got := worsening(tc.a, tc.b, tc.better); math.Abs(got-tc.want) > 1e-12 && got != tc.want {
			t.Errorf("worsening(%g, %g, %s) = %g, want %g", tc.a, tc.b, tc.better, got, tc.want)
		}
	}
}

// TestCheckRecords runs -check over two records against a definition
// with one bound per metric direction.
func TestCheckRecords(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o666); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := write("bench.json", map[string]any{"end_to_end": []boundDef{
		{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	}})
	rec := func(p50, rate float64) record {
		return record{Workloads: map[string]workloadRun{"sweep-cold": {Metrics: map[string]value{
			"op_p50_ms": {p50, "ms"}, "ops_per_s": {rate, "1/s"},
		}}}}
	}
	a := write("a.json", rec(1.0, 1000))

	var out bytes.Buffer
	ok, err := checkRecords(&out, bench, a, write("within.json", rec(1.09, 1080)))
	if err != nil || !ok {
		t.Fatalf("9%% slower and 8%% more throughput: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err = checkRecords(&out, bench, a, write("outside.json", rec(1.0, 850)))
	if err != nil || ok {
		t.Fatalf("15%% less throughput passed the 10%% bound: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "OUTSIDE") || strings.Count(out.String(), "within") != 1 {
		t.Errorf("want one pair within and one outside:\n%s", out.String())
	}
	if _, err := checkRecords(&out, bench, a, write("empty.json", record{})); err == nil {
		t.Error("records sharing no pair should be an error")
	}
}
