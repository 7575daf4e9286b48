package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"sort"
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

// A span stays where Add stored it: the storage grows a chunk at a
// time instead of re-copying every span. Len, End and the emission
// order hold across chunk boundaries.
func TestAddNeverMovesASpan(t *testing.T) {
	var tl Timeline
	tl.Add(0, "compute", "first", 0, 1)
	first := tl.at(0)
	const n = 3*chunkSpans + 5
	for i := 1; i < n; i++ {
		tl.Add(i%4, "compute", "k", float64(n-i), float64(n-i)+0.5)
	}
	if tl.at(0) != first {
		t.Fatal("adding spans moved the first one")
	}
	if tl.Len() != n || len(tl.chunks) != 4 {
		t.Fatalf("len = %d in %d chunks, want %d in 4", tl.Len(), len(tl.chunks), n)
	}
	for i, s := range emitted(&tl)[1:] {
		if want := float64(n - 1 - i); s.Start != want {
			t.Fatalf("span %d starts at %g, want %g", i+1, s.Start, want)
		}
	}
	if end := tl.End(); end != float64(n-1)+0.5 {
		t.Fatalf("end = %g, want %g", end, float64(n-1)+0.5)
	}
	if spans := tl.Spans(); spans[0].Label != "first" || spans[n-1].Start != n-1 {
		t.Fatalf("sorted spans run %+v .. %+v", spans[0], spans[n-1])
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

// emitted returns a copy of the timeline's spans in emission order.
func emitted(t *Timeline) []Span {
	var out []Span
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// referenceChromeJSON is the encoder ChromeJSON replaced: spans sorted
// with sort.Slice, then each event encoded by encoding/json through
// reflection. ChromeJSON must write its bytes and return its errors.
func referenceChromeJSON(t *Timeline, w *bytes.Buffer, freqHz float64) error {
	type chromeEvent struct {
		Name     string  `json:"name"`
		Phase    string  `json:"ph"`
		TsMicros float64 `json:"ts"`
		DurUs    float64 `json:"dur"`
		PID      int     `json:"pid"`
		TID      string  `json:"tid"`
		Cat      string  `json:"cat"`
	}
	spans := emitted(t)
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		if spans[i].Chip != spans[j].Chip {
			return spans[i].Chip < spans[j].Chip
		}
		return spans[i].Category < spans[j].Category
	})
	toUs := 1e6 / freqHz
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{s.Label, "X", s.Start * toUs, s.Duration() * toUs, s.Chip, s.Category, s.Category})
	}
	return json.NewEncoder(w).Encode(events)
}

// TestChromeJSONMatchesEncodingJSON holds the direct encoder to
// encoding/json byte for byte: HTML-safe string escapes (the > of a
// link label), control bytes, invalid UTF-8, U+2028, the exponent form
// below 1e-6 and from 1e21, negative zero, the trailing newline, an
// empty timeline, and ties in (start, chip, category) that the sort
// leaves where it always has. A seeded random timeline with many ties
// follows the hand-picked one.
func TestChromeJSONMatchesEncodingJSON(t *testing.T) {
	labels := []string{"linear", "0->1", "a<b&c", `quote"back\\`, "tab\tnl\ncr\rbs\bff\f\x01\x1f\x7f",
		"\xff\xfeinvalid", "line\u2028para\u2029", "é→✓", ""}
	cats := []string{"compute", "dma-l2l1", "dma-l3", "link", "link<2>"}
	check := func(t *testing.T, tl *Timeline, freqHz float64) {
		t.Helper()
		var got, want bytes.Buffer
		gotErr := tl.ChromeJSON(&got, freqHz)
		wantErr := referenceChromeJSON(tl, &want, freqHz)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("error %v, encoding/json %v", gotErr, wantErr)
		}
		if gotErr != nil && got.Len() != 0 {
			t.Fatalf("%d bytes written before the error", got.Len())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("bytes differ from encoding/json:\n got %.400s\nwant %.400s", got.Bytes(), want.Bytes())
		}
	}

	var empty Timeline
	check(t, &empty, 500e6)

	var tl Timeline
	for i, l := range labels {
		tl.Add(i%3, cats[i%len(cats)], l, float64(i*7), float64(i*7+3))
	}
	for _, v := range []float64{0, 1e-4, 4e-4, 5e-4, 1, 123.456, 5e14, 5e15, 1e18, 3e25} {
		tl.Add(1, "compute", "num", v, 2*v) // exponent forms at 500 MHz: below 1e-6 us and from 1e21 us
		tl.Add(1, "compute", "tie", v, 3*v) // ties on (start, chip, category)
	}
	tl.Add(2, "link", "negzero", math.Copysign(0, -1), 0)
	for _, freq := range []float64{500e6, 1, 3e9} {
		check(t, &tl, freq)
	}

	r := rand.New(rand.NewPCG(7, 11))
	var ties Timeline
	for range 5000 {
		start := float64(r.IntN(200)) * 1.5
		ties.Add(r.IntN(8), cats[r.IntN(len(cats))], labels[r.IntN(len(labels))], start, start+float64(r.IntN(40))/7)
	}
	check(t, &ties, 500e6)

	for _, c := range []struct{ start, end float64 }{{math.NaN(), math.NaN()}, {0, math.Inf(1)}, {math.Inf(-1), 0}} {
		var bad Timeline
		for _, s := range emitted(&tl) {
			bad.Add(s.Chip, s.Category, s.Label, s.Start, s.End)
		}
		bad.Add(0, "compute", "bad", c.start, c.end) // Add lets a non-finite span through
		check(t, &bad, 500e6)
	}
}
