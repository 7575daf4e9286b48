package perfsim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mcudist/internal/deploy"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/trace"
)

func runTraced(t *testing.T, n int) (*Result, *trace.Timeline) {
	t.Helper()
	p, err := partition.NewTensorParallel(model.TinyLlama42M(), n)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.NewBatched(p, hw.Siracusa(), model.Autoregressive, 128, 1, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var tl trace.Timeline
	res, err := RunTraced(d, &tl)
	if err != nil {
		t.Fatal(err)
	}
	return res, &tl
}

// busyByCategory sums span durations per category.
func busyByCategory(tl *trace.Timeline) map[string]float64 {
	out := map[string]float64{}
	for _, s := range tl.Spans() {
		out[s.Category] += s.Duration()
	}
	return out
}

// checkNoOverlap verifies that spans sharing a chip and category never
// overlap (each models an exclusive resource). It returns the first
// violation found.
func checkNoOverlap(tl *trace.Timeline) error {
	type key struct {
		chip int
		cat  string
	}
	last := map[key]trace.Span{}
	for _, s := range tl.Spans() { // ordered by start
		k := key{s.Chip, s.Category}
		if prev, ok := last[k]; ok && s.Start < prev.End-1e-9 {
			return fmt.Errorf("chip %d %s: %q [%g,%g) overlaps %q [%g,%g)",
				s.Chip, s.Category, prev.Label, prev.Start, prev.End, s.Label, s.Start, s.End)
		}
		last[k] = s
	}
	return nil
}

func TestCheckNoOverlap(t *testing.T) {
	var ok trace.Timeline
	ok.Add(0, "compute", "a", 0, 10)
	ok.Add(0, "compute", "b", 10, 20)
	ok.Add(0, "link", "c", 5, 15) // different category: allowed
	ok.Add(1, "compute", "d", 5, 15)
	if err := checkNoOverlap(&ok); err != nil {
		t.Fatalf("valid timeline rejected: %v", err)
	}
	var bad trace.Timeline
	bad.Add(0, "compute", "a", 0, 10)
	bad.Add(0, "compute", "b", 5, 15)
	if err := checkNoOverlap(&bad); err == nil {
		t.Fatal("overlapping spans accepted")
	}
}

func TestTraceMatchesResult(t *testing.T) {
	res, tl := runTraced(t, 8)
	if tl.Len() == 0 {
		t.Fatal("no spans recorded")
	}
	// The timeline may extend past the critical path: background
	// weight prefetch (the paper's overlap idealization) keeps the IO
	// DMA busy beyond the block boundary. It can never end earlier
	// than the runtime.
	if tl.End() < res.TotalCycles-1e-6 {
		t.Fatalf("trace end %g before total %g", tl.End(), res.TotalCycles)
	}
	// Per-category compute busy cycles must match the stats summed
	// over chips.
	busy := busyByCategory(tl)
	var compute float64
	for i := range res.PerChip {
		compute += res.PerChip[i].ComputeCycles
	}
	if math.Abs(busy["compute"]-compute) > 1e-6*compute {
		t.Fatalf("trace compute %g != stats %g", busy["compute"], compute)
	}
}

func TestTraceResourceExclusivity(t *testing.T) {
	// Spans on one chip's cluster / DMA / IO / link must never
	// overlap: each is an exclusive resource.
	for _, n := range []int{1, 4, 8} {
		_, tl := runTraced(t, n)
		if err := checkNoOverlap(tl); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestTraceUntracedRunIdentical(t *testing.T) {
	res1, _ := runTraced(t, 8)
	p, _ := partition.NewTensorParallel(model.TinyLlama42M(), 8)
	d, _ := deploy.NewBatched(p, hw.Siracusa(), model.Autoregressive, 128, 1, deploy.Options{})
	res2, err := Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if res1.TotalCycles != res2.TotalCycles {
		t.Fatalf("tracing changed the result: %g vs %g", res1.TotalCycles, res2.TotalCycles)
	}
}

func TestTraceContainsAllCategories(t *testing.T) {
	_, tl := runTraced(t, 4) // resident-single: has L3 spans too
	busy := busyByCategory(tl)
	for _, cat := range []string{"compute", "dma-l2l1", "dma-l3"} {
		if busy[cat] <= 0 {
			t.Errorf("category %s missing from trace", cat)
		}
	}
	var linkBusy float64
	for cat, v := range busy {
		if strings.HasPrefix(cat, "link") {
			linkBusy += v
		}
	}
	if linkBusy <= 0 {
		t.Error("no link spans in trace")
	}
}

// A traced run formats each directed edge's two labels once, on the
// edge's first traced hop, instead of twice per hop. A traced 64-chip
// scaled prompt run (19,488 spans) allocated 4,068 times when every
// hop formatted its own labels, and 288 times with one pair per edge.
// The arena is pinned and warm, so the count covers the labels, the
// timeline's chunks and the Result.
func TestTracedRunFormatsEachEdgeOnce(t *testing.T) {
	cfg := model.TinyLlamaScaled64()
	p, err := partition.NewTensorParallel(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.NewBatched(p, hw.Siracusa(), model.Prompt, model.PaperSeqLen(cfg, model.Prompt), 1, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim()
	var warm trace.Timeline
	if _, err := s.RunTraced(d, &warm); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		var tl trace.Timeline
		if _, err := s.RunTraced(d, &tl); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Errorf("a traced 64-chip prompt run allocates %.0f times, want at most 1000", allocs)
	}
}
