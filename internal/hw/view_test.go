package hw

import (
	"maps"
	"strings"
	"testing"
)

// chainTable registers a 4-chip daisy chain 0-1-2-3 with a slower
// 0<->3 repair link.
func chainTable(t *testing.T) (Network, map[Edge]LinkClass) {
	t.Helper()
	slow := MIPI().Slower(4)
	edges := map[Edge]LinkClass{}
	for _, w := range [][3]int{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {0, 3, 1}} {
		c := MIPI()
		if w[2] == 1 {
			c = slow
		}
		edges[Edge{w[0], w[1]}] = c
		edges[Edge{w[1], w[0]}] = c
	}
	net, err := TableNetwork(edges)
	if err != nil {
		t.Fatal(err)
	}
	return net, edges
}

// A view resolves each edge through its override, or else through the
// base edge between the survivors, and wires nothing the base does
// not; NetworkEdges materializes exactly that.
func TestViewResolvesThroughBase(t *testing.T) {
	base, edges := chainTable(t)
	fast := MIPI().Slower(2)
	v := View{Base: base, Survivors: []int{0, 2, 3}, Overrides: []EdgeClass{{Edge{1, 2}, fast}}}
	net, err := ViewNetwork(v)
	if err != nil {
		t.Fatal(err)
	}
	if net.Profile != NetView || !strings.HasPrefix(net.String(), "view-") {
		t.Fatalf("view network %+v spells %q", net, net)
	}
	want := map[Edge]LinkClass{
		{0, 2}: edges[Edge{0, 3}], {2, 0}: edges[Edge{3, 0}],
		{1, 2}: fast, {2, 1}: edges[Edge{3, 2}],
	}
	got, err := NetworkEdges(net, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("view wires %v, want %v", got, want)
	}
	for e, c := range want {
		if l, err := net.LinkFor(e.From, e.To); err != nil || l != c {
			t.Errorf("LinkFor(%v) = %+v, %v; want %+v", e, l, err, c)
		}
	}
	for _, e := range []Edge{{0, 1}, {1, 0}, {0, 0}, {0, 3}, {-1, 0}} {
		if _, err := net.LinkFor(e.From, e.To); err == nil {
			t.Errorf("LinkFor(%v) resolved an edge the view does not wire", e)
		}
	}
	if got, err := NetworkEdges(net, 2); err == nil {
		t.Errorf("chips 0 and 1 of the view wire nothing, yet NetworkEdges returned %v", got)
	}
}

// Views are interned by content: equal views are equal networks, and a
// view differs from its base and from any other view even when it
// drops and re-prices nothing.
func TestViewDigestIsContent(t *testing.T) {
	uniform := UniformNetwork(MIPI())
	identity := View{Base: uniform, Survivors: []int{0, 1, 2, 3}}
	a, err := ViewNetwork(identity)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ViewNetwork(View{Base: uniform, Survivors: []int{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a == uniform {
		t.Fatalf("equal views %v and %v, base %v", a, b, uniform)
	}
	seen := map[Network]string{a: "identity"}
	for name, v := range map[string]View{
		"fewer survivors":  {Base: uniform, Survivors: []int{0, 1, 2}},
		"other survivors":  {Base: uniform, Survivors: []int{0, 1, 2, 4}},
		"clustered base":   {Base: ClusteredNetwork(MIPI(), MIPI(), 2), Survivors: []int{0, 1, 2, 3}},
		"one-ulp override": {Base: uniform, Survivors: []int{0, 1, 2, 3}, Overrides: []EdgeClass{{Edge{0, 1}, MIPI().Slower(1.0000000000000002)}}},
		"identity override": {Base: uniform, Survivors: []int{0, 1, 2, 3},
			Overrides: []EdgeClass{{Edge{0, 1}, MIPI()}}},
	} {
		n, err := ViewNetwork(v)
		if err != nil {
			t.Fatal(err)
		}
		if other, dup := seen[n]; dup {
			t.Errorf("%s shares its digest with %s", name, other)
		}
		seen[n] = name
	}
	got, ok := ViewOf(a.TableDigest)
	if !ok || got.Base != uniform || len(got.Survivors) != 4 || got.Overrides != nil {
		t.Errorf("ViewOf = %+v, %v", got, ok)
	}
	got.Survivors[0] = 9 // a copy: the registered view stays intact
	if again, _ := ViewOf(a.TableDigest); again.Survivors[0] != 0 {
		t.Error("ViewOf returned the registered survivors")
	}
}

// ViewOver of a view composes: it keeps the base, takes the first n
// survivors and keeps the overrides among them; of any other network
// it is the identity view.
func TestViewOverComposes(t *testing.T) {
	base, _ := chainTable(t)
	v := View{Base: base, Survivors: []int{0, 1, 2, 3},
		Overrides: []EdgeClass{{Edge{0, 1}, MIPI().Slower(3)}, {Edge{2, 3}, MIPI().Slower(5)}}}
	net, err := ViewNetwork(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ViewOver(net, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Base != base || len(got.Survivors) != 3 || len(got.Overrides) != 1 || got.Overrides[0].Edge != (Edge{0, 1}) {
		t.Errorf("ViewOver(view, 3) = %+v", got)
	}
	if _, err := ViewOver(net, 5); err == nil {
		t.Error("a 4-chip view spanned 5 chips")
	}
	id, err := ViewOver(UniformNetwork(MIPI()), 3)
	if err != nil || id.Base != UniformNetwork(MIPI()) || len(id.Survivors) != 3 || id.Survivors[2] != 2 {
		t.Errorf("ViewOver(uniform, 3) = %+v, %v", id, err)
	}
	if !id.Slow(Edge{1, 2}, 2) || id.Slow(Edge{1, 1}, 2) || id.Slow(Edge{1, 3}, 2) {
		t.Error("Slow re-priced an unwired edge or missed a wired one")
	}
	if !id.Slow(Edge{1, 2}, 5) || len(id.Overrides) != 1 || id.Overrides[0].Class != MIPI().Slower(2).Slower(5) {
		t.Errorf("slowing one edge twice: %+v", id.Overrides)
	}
}

func TestViewNetworkRejectsBadViews(t *testing.T) {
	base, _ := chainTable(t)
	uniform := UniformNetwork(MIPI())
	nested, err := ViewNetwork(View{Base: uniform, Survivors: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]View{
		"view base":           {Base: nested, Survivors: []int{0, 1}},
		"unregistered base":   {Base: Network{Profile: NetTable, TableDigest: "feed"}, Survivors: []int{0, 1}},
		"one survivor":        {Base: uniform, Survivors: []int{0}},
		"unsorted survivors":  {Base: uniform, Survivors: []int{0, 2, 1}},
		"repeated survivor":   {Base: uniform, Survivors: []int{0, 1, 1}},
		"negative survivor":   {Base: uniform, Survivors: []int{-1, 0}},
		"unsorted overrides":  {Base: uniform, Survivors: []int{0, 1, 2}, Overrides: []EdgeClass{{Edge{1, 0}, MIPI()}, {Edge{0, 1}, MIPI()}}},
		"duplicate override":  {Base: uniform, Survivors: []int{0, 1}, Overrides: []EdgeClass{{Edge{0, 1}, MIPI()}, {Edge{0, 1}, MIPI()}}},
		"self-edge override":  {Base: uniform, Survivors: []int{0, 1}, Overrides: []EdgeClass{{Edge{1, 1}, MIPI()}}},
		"override off view":   {Base: uniform, Survivors: []int{0, 1}, Overrides: []EdgeClass{{Edge{0, 2}, MIPI()}}},
		"override unwired":    {Base: base, Survivors: []int{0, 1, 2}, Overrides: []EdgeClass{{Edge{0, 2}, MIPI()}}},
		"zero-bandwidth edge": {Base: uniform, Survivors: []int{0, 1}, Overrides: []EdgeClass{{Edge{0, 1}, LinkClass{}}}},
		"wires nothing":       {Base: base, Survivors: []int{0, 2}},
	} {
		if _, err := ViewNetwork(v); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := (Network{Profile: NetView, TableDigest: "feed"}).Validate(); err == nil {
		t.Error("an unregistered view validated")
	}
}

// Tables and views report the first bad edge in (from, to) order, so a
// wiring with several bad edges fails the same way every time.
func TestBadEdgeErrorsAreOrdered(t *testing.T) {
	bad := map[Edge]LinkClass{}
	for i := range 16 {
		bad[Edge{i + 1, i}] = LinkClass{}
	}
	for range 8 {
		if _, err := TableNetwork(bad); err == nil || !strings.HasPrefix(err.Error(), "hw: edge 1->0:") {
			t.Fatalf("table error %v, want the 1->0 edge's", err)
		}
	}
	v := View{Base: UniformNetwork(MIPI()), Survivors: []int{0, 1, 2},
		Overrides: []EdgeClass{{Edge{0, 2}, MIPI()}, {Edge{1, 0}, LinkClass{}}, {Edge{2, 0}, LinkClass{}}}}
	if _, err := ViewNetwork(v); err == nil || !strings.HasPrefix(err.Error(), "hw: edge 1->0:") {
		t.Fatalf("view error %v, want the 1->0 edge's", err)
	}
}
