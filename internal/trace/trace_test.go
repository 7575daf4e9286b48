package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestAddAndSort(t *testing.T) {
	var tl Timeline
	tl.Add(1, "compute", "b", 10, 20)
	tl.Add(0, "compute", "a", 0, 5)
	tl.Add(0, "link", "c", 10, 12)
	if tl.Len() != 3 {
		t.Fatalf("len = %d", tl.Len())
	}
	spans := tl.Spans()
	if spans[0].Label != "a" {
		t.Fatalf("first span %q, want a", spans[0].Label)
	}
	if tl.End() != 20 {
		t.Fatalf("end = %g", tl.End())
	}
}

func TestInvertedSpanPanics(t *testing.T) {
	var tl Timeline
	defer func() {
		if recover() == nil {
			t.Error("inverted span did not panic")
		}
	}()
	tl.Add(0, "compute", "bad", 10, 5)
}

func TestChromeJSON(t *testing.T) {
	var tl Timeline
	tl.Add(0, "compute", "linear", 0, 500) // 1 µs at 500 MHz
	tl.Add(1, "link", "0->1", 500, 1000)
	var b strings.Builder
	if err := tl.ChromeJSON(&b, 500e6); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0]["dur"].(float64) != 1.0 {
		t.Fatalf("duration = %v µs, want 1", events[0]["dur"])
	}
	if events[0]["ph"] != "X" {
		t.Fatal("phase must be X (complete event)")
	}
	if err := tl.ChromeJSON(&b, 0); err == nil {
		t.Fatal("zero frequency accepted")
	}
}

func TestRender(t *testing.T) {
	var tl Timeline
	tl.Add(0, "compute", "a", 0, 50)
	tl.Add(1, "dma-l3", "w", 50, 100)
	var b strings.Builder
	if err := tl.Render(&b, 40); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "chip  0") || !strings.Contains(out, "chip  1") {
		t.Fatalf("missing chip rows:\n%s", out)
	}
	if !strings.Contains(out, "C") || !strings.Contains(out, "M") {
		t.Fatalf("missing glyphs:\n%s", out)
	}
	var empty Timeline
	b.Reset()
	if err := empty.Render(&b, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "empty") {
		t.Fatal("empty timeline not flagged")
	}
}
