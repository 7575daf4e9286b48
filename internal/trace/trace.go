// Package trace records execution timelines from the performance
// simulator: one span per kernel, DMA transfer, or link hop, per chip.
// Timelines render as per-chip text Gantt charts or export in the
// Chrome trace-event format for chrome://tracing / Perfetto.
package trace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
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

// chunkSpans is the number of spans one chunk of a timeline's storage
// holds (56 KiB of spans on 64-bit).
const chunkSpans = 1024

// Timeline collects spans in emission order.
type Timeline struct {
	// chunks holds the spans in emission order, chunkSpans to a chunk;
	// every chunk but the last is full. The storage grows a chunk at a
	// time, so a traced run never re-copies the spans it has recorded
	// (a 64-chip prompt run records 19,488).
	chunks [][]Span
}

// Add records one span. Inverted spans are rejected loudly: they
// indicate a simulator bug.
func (t *Timeline) Add(chip int, category, label string, start, end float64) {
	if end < start {
		panic(fmt.Sprintf("trace: inverted span %s [%g, %g)", label, start, end))
	}
	if k := len(t.chunks); k == 0 || len(t.chunks[k-1]) == chunkSpans {
		t.chunks = append(t.chunks, make([]Span, 0, chunkSpans))
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, Span{Chip: chip, Category: category, Label: label, Start: start, End: end})
}

// Len returns the number of recorded spans.
func (t *Timeline) Len() int {
	k := len(t.chunks)
	if k == 0 {
		return 0
	}
	return (k-1)*chunkSpans + len(t.chunks[k-1])
}

// at returns the i-th span in emission order.
func (t *Timeline) at(i int32) *Span {
	return &t.chunks[i/chunkSpans][i%chunkSpans]
}

// Spans returns a copy sorted by start time (chip, category break
// ties). It sorts span indices rather than spans, so a swap moves 4
// bytes instead of a whole span. The order of spans with equal keys is
// whatever the sort's comparisons leave, and ChromeJSON's bytes depend
// on it (core.TestTraceDigests pins them), so the comparison must keep
// answering "less" exactly as it does.
func (t *Timeline) Spans() []Span {
	idx := make([]int32, t.Len())
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(i, j int32) int {
		a, b := t.at(i), t.at(j)
		if a.Start != b.Start {
			if a.Start < b.Start {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(a.Chip, b.Chip); c != 0 {
			return c
		}
		return strings.Compare(a.Category, b.Category)
	})
	out := make([]Span, len(idx))
	for i, j := range idx {
		out[i] = *t.at(j)
	}
	return out
}

// End returns the latest span end.
func (t *Timeline) End() float64 {
	var end float64
	for _, c := range t.chunks {
		for i := range c {
			if c[i].End > end {
				end = c[i].End
			}
		}
	}
	return end
}

// ChromeJSON writes the timeline in the Chrome trace-event array
// format, one complete ("X" phase) event per span in Spans order;
// freqHz converts cycles to microseconds. The bytes are what
// encoding/json writes for the same events: its number spelling, its
// HTML-safe string escapes and its trailing newline. A timestamp or
// duration that is not finite is an error, and nothing is written.
func (t *Timeline) ChromeJSON(w io.Writer, freqHz float64) error {
	if freqHz <= 0 {
		return fmt.Errorf("trace: frequency must be positive")
	}
	toUs := 1e6 / freqHz
	b := make([]byte, 0, 128*t.Len()+3)
	b = append(b, '[')
	for i, s := range t.Spans() {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		b = appendJSONString(append(b, `{"name":`...), s.Label)
		b = append(b, `,"ph":"X","ts":`...)
		if b, err = appendJSONFloat(b, s.Start*toUs); err != nil {
			return err
		}
		b = append(b, `,"dur":`...)
		if b, err = appendJSONFloat(b, s.Duration()*toUs); err != nil {
			return err
		}
		b = strconv.AppendInt(append(b, `,"pid":`...), int64(s.Chip), 10)
		b = append(b, `,"tid":`...)
		cat := len(b)
		b = appendJSONString(b, s.Category)
		quoted := b[cat:] // tid and cat spell the category alike
		b = append(append(b, `,"cat":`...), quoted...)
		b = append(b, '}')
	}
	b = append(b, "]\n"...)
	_, err := w.Write(b)
	return err
}

// appendJSONFloat appends f as encoding/json spells a float64: the
// shortest round-trip form, in exponent form below 1e-6 or from 1e21
// up, with the exponent unpadded. A value that is not finite is
// encoding/json's UnsupportedValueError.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 -> e-7
		b = b[:n-1]
	}
	return b, nil
}

// appendJSONString appends s as encoding/json quotes a string with its
// default HTML escaping: quote and backslash escaped, \b \f \n \r \t
// by name, other control bytes and < > & as \u00XX, invalid UTF-8 as
// \ufffd, and U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
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
	for _, c := range t.chunks {
		for _, s := range c {
			byChip[s.Chip] = append(byChip[s.Chip], s)
			if s.Chip > maxChip {
				maxChip = s.Chip
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %d spans over %.0f cycles (C=compute d=L2/L1 M=L3 L=link)\n", t.Len(), end)
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
