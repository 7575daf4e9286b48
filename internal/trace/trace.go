// Package trace records execution timelines from the performance
// simulator: one span per kernel, DMA transfer, or link hop, per chip.
// Timelines render as per-chip text Gantt charts or export in the
// Chrome trace-event format for chrome://tracing / Perfetto.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Span is one timed activity on one chip.
type Span struct {
	Chip     int
	Category string // compute | dma-l2l1 | dma-l3 | link
	Label    string
	Start    float64 // cycles
	End      float64
}

// Duration returns the span length in cycles.
func (s Span) Duration() float64 { return s.End - s.Start }

// Timeline collects spans in emission order.
type Timeline struct {
	spans []Span
}

// Add records one span. Inverted spans are rejected loudly: they
// indicate a simulator bug.
func (t *Timeline) Add(chip int, category, label string, start, end float64) {
	if end < start {
		panic(fmt.Sprintf("trace: inverted span %s [%g, %g)", label, start, end))
	}
	t.spans = append(t.spans, Span{Chip: chip, Category: category, Label: label, Start: start, End: end})
}

// Len returns the number of recorded spans.
func (t *Timeline) Len() int { return len(t.spans) }

// Spans returns a copy sorted by start time (chip, category break
// ties).
func (t *Timeline) Spans() []Span {
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Chip != out[j].Chip {
			return out[i].Chip < out[j].Chip
		}
		return out[i].Category < out[j].Category
	})
	return out
}

// End returns the latest span end.
func (t *Timeline) End() float64 {
	var end float64
	for _, s := range t.spans {
		if s.End > end {
			end = s.End
		}
	}
	return end
}

// chromeEvent is one complete ("X" phase) trace event.
type chromeEvent struct {
	Name     string  `json:"name"`
	Phase    string  `json:"ph"`
	TsMicros float64 `json:"ts"`
	DurUs    float64 `json:"dur"`
	PID      int     `json:"pid"`
	TID      string  `json:"tid"`
	Cat      string  `json:"cat"`
}

// ChromeJSON writes the timeline in the Chrome trace-event array
// format; freqHz converts cycles to microseconds.
func (t *Timeline) ChromeJSON(w io.Writer, freqHz float64) error {
	if freqHz <= 0 {
		return fmt.Errorf("trace: frequency must be positive")
	}
	toUs := 1e6 / freqHz
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.Spans() {
		events = append(events, chromeEvent{
			Name:     s.Label,
			Phase:    "X",
			TsMicros: s.Start * toUs,
			DurUs:    s.Duration() * toUs,
			PID:      s.Chip,
			TID:      s.Category,
			Cat:      s.Category,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// Render writes a per-chip text Gantt chart of the given width.
func (t *Timeline) Render(w io.Writer, width int) error {
	if width <= 0 {
		width = 80
	}
	end := t.End()
	if end == 0 {
		_, err := io.WriteString(w, "(empty timeline)\n")
		return err
	}
	glyphFor := func(cat string) byte {
		switch {
		case cat == "compute":
			return 'C'
		case cat == "dma-l2l1":
			return 'd'
		case cat == "dma-l3":
			return 'M'
		case strings.HasPrefix(cat, "link"):
			return 'L'
		default:
			return '?'
		}
	}
	byChip := map[int][]Span{}
	maxChip := 0
	for _, s := range t.spans {
		byChip[s.Chip] = append(byChip[s.Chip], s)
		if s.Chip > maxChip {
			maxChip = s.Chip
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %d spans over %.0f cycles (C=compute d=L2/L1 M=L3 L=link)\n", len(t.spans), end)
	for chip := 0; chip <= maxChip; chip++ {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range byChip[chip] {
			lo := int(s.Start / end * float64(width))
			hi := int(s.End / end * float64(width))
			if hi >= width {
				hi = width - 1
			}
			g := glyphFor(s.Category)
			for i := lo; i <= hi; i++ {
				row[i] = g
			}
		}
		fmt.Fprintf(&b, "chip %2d |%s|\n", chip, row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
