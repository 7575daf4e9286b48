package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("My Table", "chips", "cycles", "speedup")
	tb.AddRow(1, 1000000.0, 1.0)
	tb.AddRow(8, 43000.0, 23.25)
	out := tb.String()
	if !strings.Contains(out, "My Table") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "chips") || !strings.Contains(out, "speedup") {
		t.Error("headers missing")
	}
	if !strings.Contains(out, "23.25") {
		t.Errorf("row value missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("lines = %d, want 5:\n%s", len(lines), out)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "long-header")
	tb.AddRow("xxxxxxxxxx", 1)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header and row lines should have equal rendered width.
	if len(strings.TrimRight(lines[0], " ")) > len(lines[1]) {
		t.Errorf("misaligned table:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow(1, 2)
	var b strings.Builder
	if err := tb.CSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "a,b\n1,2\n" {
		t.Fatalf("csv = %q", b.String())
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(0.0)
	tb.AddRow(1.5e9)
	tb.AddRow(0.00001)
	tb.AddRow(123.456)
	tb.AddRow(float32(2.5))
	out := tb.String()
	for _, want := range []string{"0", "1.500e+09", "1.000e-05", "123.5", "2.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
}

func TestRowsCount(t *testing.T) {
	tb := NewTable("", "a")
	if len(tb.rows) != 0 {
		t.Fatal("fresh table has rows")
	}
	tb.AddRow(1)
	tb.AddRow(2)
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
}

func TestBar(t *testing.T) {
	if Bar(50, 100, 10) != "#####" {
		t.Errorf("bar = %q", Bar(50, 100, 10))
	}
	if Bar(0, 100, 10) != "" {
		t.Error("zero bar should be empty")
	}
	if Bar(200, 100, 10) != "##########" {
		t.Error("bar should clamp at width")
	}
	if Bar(1, 0, 10) != "" {
		t.Error("zero total should be empty")
	}
}
