package collective

import (
	"strings"
	"testing"

	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

func TestZeroPlanBindsNothing(t *testing.T) {
	var p Plan
	if !p.IsZero() {
		t.Fatal("zero plan not IsZero")
	}
	for _, c := range Classes() {
		if _, ok := p.Explicit(c); ok {
			t.Errorf("zero plan binds %s", c)
		}
		if got := p.Topology(c, hw.TopoRing); got != hw.TopoRing {
			t.Errorf("zero plan resolves %s to %s, want run topology", c, got)
		}
	}
	if p.String() != "uniform" {
		t.Errorf("zero plan prints %q", p.String())
	}
}

func TestWithExplicitResolve(t *testing.T) {
	p := Plan{}.With(PrefillMHSA, hw.TopoRing).With(DecodeFFN, hw.TopoStar)
	if topo, ok := p.Explicit(PrefillMHSA); !ok || topo != hw.TopoRing {
		t.Errorf("prefill-mhsa = %v/%v, want ring", topo, ok)
	}
	if got := p.Topology(PrefillFFN, hw.TopoTree); got != hw.TopoTree {
		t.Errorf("unbound class resolved to %s, want run topology", got)
	}
	if got := p.Topology(DecodeFFN, hw.TopoTree); got != hw.TopoStar {
		t.Errorf("decode-ffn resolved to %s, want star", got)
	}
	// Rebinding overwrites.
	p = p.With(PrefillMHSA, hw.TopoTree)
	if topo, _ := p.Explicit(PrefillMHSA); topo != hw.TopoTree {
		t.Errorf("rebind left %s", topo)
	}
}

func TestUniformPlan(t *testing.T) {
	p := Uniform(hw.TopoRing)
	for _, c := range Classes() {
		if topo, ok := p.Explicit(c); !ok || topo != hw.TopoRing {
			t.Errorf("%s = %v/%v, want ring", c, topo, ok)
		}
	}
}

func TestMerge(t *testing.T) {
	prefill := Plan{}.With(PrefillMHSA, hw.TopoRing).With(PrefillFFN, hw.TopoRing)
	decode := Plan{}.With(DecodeMHSA, hw.TopoTree).With(DecodeFFN, hw.TopoTree)
	merged, err := prefill.Merge(decode)
	if err != nil {
		t.Fatal(err)
	}
	if merged.String() != "prefill=ring,decode=tree" {
		t.Errorf("merged plan prints %q", merged.String())
	}
	// Agreeing bindings merge fine; conflicting ones error.
	if _, err := merged.Merge(prefill); err != nil {
		t.Errorf("agreeing merge failed: %v", err)
	}
	conflict := Plan{}.With(PrefillMHSA, hw.TopoStar)
	if _, err := merged.Merge(conflict); err == nil {
		t.Error("conflicting merge accepted")
	}
}

func TestStringParsePlanRoundTrip(t *testing.T) {
	plans := []Plan{
		{},
		Uniform(hw.TopoTree),
		Plan{}.With(PrefillMHSA, hw.TopoRing),
		Plan{}.With(PrefillMHSA, hw.TopoRing).With(PrefillFFN, hw.TopoTree),
		Plan{}.With(PrefillMHSA, hw.TopoRing).With(PrefillFFN, hw.TopoRing).
			With(DecodeMHSA, hw.TopoTree).With(DecodeFFN, hw.TopoTree),
		Plan{}.With(KVExchange, hw.TopoFullyConnected).With(OutputExchange, hw.TopoStar),
	}
	for _, p := range plans {
		got, err := ParsePlan(p.String())
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", p.String(), err)
			continue
		}
		if got != p {
			t.Errorf("round trip of %q yielded %q", p.String(), got.String())
		}
	}
}

func TestParsePlanSpellings(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Plan
	}{
		{"", Plan{}},
		{"uniform", Plan{}},
		{"prefill=ring,decode=tree", Plan{}.
			With(PrefillMHSA, hw.TopoRing).With(PrefillFFN, hw.TopoRing).
			With(DecodeMHSA, hw.TopoTree).With(DecodeFFN, hw.TopoTree)},
		{" Prefill-MHSA = ring , kv=fc ", Plan{}.
			With(PrefillMHSA, hw.TopoRing).With(KVExchange, hw.TopoFullyConnected)},
		{"all=tree,prefill=ring", func() Plan {
			p := Uniform(hw.TopoTree)
			return p.With(PrefillMHSA, hw.TopoRing).With(PrefillFFN, hw.TopoRing)
		}()},
		{"output=all-to-all", Plan{}.With(OutputExchange, hw.TopoFullyConnected)},
		// The "+" separator keeps plans CSV-safe: cmd/sweep's autotune
		// plan cell pastes straight back into -plan.
		{"prefill=ring+decode=tree", Plan{}.
			With(PrefillMHSA, hw.TopoRing).With(PrefillFFN, hw.TopoRing).
			With(DecodeMHSA, hw.TopoTree).With(DecodeFFN, hw.TopoTree)},
		{"prefill=ring,decode=tree+kv=star", Plan{}.
			With(PrefillMHSA, hw.TopoRing).With(PrefillFFN, hw.TopoRing).
			With(DecodeMHSA, hw.TopoTree).With(DecodeFFN, hw.TopoTree).
			With(KVExchange, hw.TopoStar)},
	} {
		got, err := ParsePlan(tc.in)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParsePlan(%q) = %q, want %q", tc.in, got.String(), tc.want.String())
		}
	}
	for _, bad := range []string{"prefill", "prefill=warp", "blocks=ring", "prefill=ring decode=tree"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestActiveClasses(t *testing.T) {
	for _, tc := range []struct {
		st   partition.Strategy
		mode model.Mode
		want []SyncClass
	}{
		{partition.TensorParallel, model.Prompt, []SyncClass{PrefillMHSA, PrefillFFN}},
		{partition.TensorParallel, model.Autoregressive, []SyncClass{DecodeMHSA, DecodeFFN}},
		{partition.Replicated, model.Prompt, []SyncClass{KVExchange, OutputExchange}},
		{partition.Replicated, model.Autoregressive, []SyncClass{KVExchange, OutputExchange}},
		{partition.Pipeline, model.Prompt, nil},
	} {
		got := ActiveClasses(tc.st, tc.mode)
		if len(got) != len(tc.want) {
			t.Errorf("%s/%s: %v, want %v", tc.st, tc.mode, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s/%s: %v, want %v", tc.st, tc.mode, got, tc.want)
				break
			}
		}
	}
}

func TestSyncClassStrings(t *testing.T) {
	if n := len(Classes()); n != 6 {
		t.Fatalf("%d sync classes, want 6", n)
	}
	seen := map[string]bool{}
	for _, c := range Classes() {
		if !c.Valid() {
			t.Errorf("%s invalid", c)
		}
		s := c.String()
		if seen[s] || strings.Contains(s, "syncclass(") {
			t.Errorf("class %d prints %q", int(c), s)
		}
		seen[s] = true
	}
	if SyncClass(-1).Valid() || NumSyncClasses.Valid() {
		t.Error("out-of-range class reported valid")
	}
}

func TestWithPanicsOnInvalid(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("invalid class", func() { Plan{}.With(NumSyncClasses, hw.TopoTree) })
	expectPanic("invalid topology", func() { Plan{}.With(PrefillMHSA, hw.Topology(99)) })
}

// MarshalText must emit a spelling UnmarshalText restores bit for bit
// — the property JSON sinks (the persistent result store among them)
// rely on, since the binding array is unexported.
func TestPlanTextRoundTrip(t *testing.T) {
	plans := []Plan{
		{}, // zero plan: "uniform"
		Uniform(hw.TopoRing),
		mustParse(t, "prefill=ring,decode=tree"),
		mustParse(t, "prefill-mhsa=star,decode-ffn=fully-connected"),
		mustParse(t, "all=tree"),
	}
	for _, p := range plans {
		text, err := p.MarshalText()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var back Plan
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if back != p {
			t.Errorf("round trip %q: got %s, want %s", text, back, p)
		}
	}
	var bad Plan
	if err := bad.UnmarshalText([]byte("prefill=moebius")); err == nil {
		t.Error("bad topology spelling accepted")
	}
}

// FuzzParsePlan checks the plan parser on arbitrary input: it never
// panics, every plan it accepts spells (String) to text that parses
// back to an equal plan with the same spelling, and MarshalText and
// UnmarshalText round-trip it. The seed corpus in testdata/fuzz holds
// the TestParsePlanSpellings inputs and the CI -plan spellings.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlan(s)
		if err != nil {
			return
		}
		spelled := p.String()
		again, err := ParsePlan(spelled)
		if err != nil {
			t.Fatalf("%q parsed, but its spelling %q does not: %v", s, spelled, err)
		}
		if again != p || again.String() != spelled {
			t.Fatalf("%q: spelling %q parses back as %q", s, spelled, again)
		}
		text, err := p.MarshalText()
		if err != nil {
			t.Fatalf("%q: MarshalText: %v", s, err)
		}
		var back Plan
		if err := back.UnmarshalText(text); err != nil || back != p {
			t.Fatalf("%q: text %q unmarshals as %q (%v)", s, text, back, err)
		}
	})
}

func mustParse(t *testing.T, s string) Plan {
	t.Helper()
	p, err := ParsePlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
