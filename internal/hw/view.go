package hw

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
)

// This file describes every board that is not closed-form as a view
// over a base network: the chips that survive and the edges whose
// class the view sets. A fault on a 64-chip board touches one chip or
// one edge, so its view stays a survivor list and a handful of
// overrides where a materialized per-edge table would hold 4,032
// edges. A measured wiring is a view over the zero Network, which
// wires nothing, so its overrides are the whole wiring.

// EdgeClass is one edge of a view with the class that overrides the
// base network's class on it.
type EdgeClass struct {
	Edge
	Class LinkClass
}

// View is a board described against its base network: a degraded
// board over the closed-form network it degrades, or a measured wiring
// over the zero Network.
type View struct {
	// Base is the network the view describes: a uniform or clustered
	// network, which wires every chip pair, or the zero Network, which
	// wires none. It is never another view.
	Base Network
	// Survivors maps the view's chips onto the base: view chip i is
	// base chip Survivors[i]. The ids are strictly increasing, so the
	// view numbers its chips in base order, and there are at least two.
	Survivors []int
	// Overrides sets the class of single edges, in view chip ids,
	// sorted by (From, To) without duplicates. Over a closed-form base
	// an override re-prices an edge; over the zero Network the
	// overrides are the edges the view wires.
	Overrides []EdgeClass
}

// ViewOver returns net over its chips 0..n-1 as a view. A view
// network yields its base, its first n survivors and the overrides
// among them; any other network yields itself, the identity survivor
// list and no overrides. It fails, as NetworkEdges does, when net does
// not validate or wires no edge below chip n.
func ViewOver(net Network, n int) (View, error) {
	if n < 2 {
		return View{}, fmt.Errorf("hw: cannot materialize a network over %d chips (need at least 2)", n)
	}
	if err := net.Validate(); err != nil {
		return View{}, err
	}
	var v View
	if net.Profile == NetView {
		reg := lookupView(net.TableDigest)
		if n > len(reg.Survivors) {
			return View{}, fmt.Errorf("hw: view %s has %d chips, cannot span %d", net, len(reg.Survivors), n)
		}
		v = View{Base: reg.Base, Survivors: slices.Clone(reg.Survivors[:n])}
		for _, o := range reg.Overrides {
			if o.From < n && o.To < n {
				v.Overrides = append(v.Overrides, o)
			}
		}
	} else {
		v = View{Base: net, Survivors: make([]int, n)}
		for i := range v.Survivors {
			v.Survivors[i] = i
		}
	}
	if !v.Wires() {
		return View{}, noEdgesBelow(net, n)
	}
	return v, nil
}

// noEdgesBelow is the error for a network that wires no edge among its
// first n chips.
func noEdgesBelow(net Network, n int) error {
	return fmt.Errorf("hw: network %s defines no edges below chip %d", net, n)
}

// link resolves the class of the view's edge from->to: the override
// when there is one, else the base class of the survivors' edge.
// ok=false means the view does not wire the edge.
func (v *View) link(from, to int) (LinkClass, bool) {
	if from < 0 || to < 0 || from >= len(v.Survivors) || to >= len(v.Survivors) {
		return LinkClass{}, false
	}
	if i, found := slices.BinarySearchFunc(v.Overrides, Edge{From: from, To: to}, compareOverride); found {
		return v.Overrides[i].Class, true
	}
	return v.Base.baseLink(v.Survivors[from], v.Survivors[to])
}

// baseLink resolves the edge from->to of a view's base network, with
// ok=false for an edge it does not wire. Only a defined class counts,
// so the zero Network wires nothing.
func (n Network) baseLink(from, to int) (LinkClass, bool) {
	if from == to {
		return LinkClass{}, false
	}
	c, err := n.LinkFor(from, to)
	return c, err == nil && c.Defined()
}

// Slow divides the bandwidth of the view's edge e by factor, through
// an override, and reports whether the view wires e (an unwired edge
// is left alone).
func (v *View) Slow(e Edge, factor float64) bool {
	c, ok := v.link(e.From, e.To)
	if !ok {
		return false
	}
	i, found := slices.BinarySearchFunc(v.Overrides, e, compareOverride)
	if !found {
		v.Overrides = slices.Insert(v.Overrides, i, EdgeClass{Edge: e})
	}
	v.Overrides[i].Class = c.Slower(factor)
	return true
}

// Wires reports whether the view wires at least one edge.
func (v *View) Wires() bool {
	for from := range v.Survivors {
		for to := range v.Survivors {
			if _, ok := v.link(from, to); ok {
				return true
			}
		}
	}
	return false
}

func compareOverride(o EdgeClass, e Edge) int {
	return compareEdges(o.Edge, e)
}

func compareEdges(a, b Edge) int {
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
}

// viewRegistry interns views by canonical digest.
var (
	viewMu  sync.RWMutex
	viewReg = map[string]*View{}
)

// ViewNetwork registers a view and returns the Network referencing it.
// The view is keyed by a canonical digest of its base network, its
// survivors and its overrides (float bit patterns included), so equal
// views yield equal Network values and a view never shares a digest
// with its base, even when it drops and re-prices nothing.
func ViewNetwork(v View) (Network, error) {
	digest, err := DigestView(v)
	if err != nil {
		return Network{}, err
	}
	cp := &View{Base: v.Base, Survivors: slices.Clone(v.Survivors), Overrides: slices.Clone(v.Overrides)}
	viewMu.Lock()
	viewReg[digest] = cp
	viewMu.Unlock()
	return Network{Profile: NetView, TableDigest: digest}, nil
}

// DigestView validates a view and returns the canonical content digest
// ViewNetwork registers it under, without registering it. The zero
// base skips validation: it wires nothing by design.
func DigestView(v View) (string, error) {
	if v.Base.Profile == NetView {
		return "", fmt.Errorf("hw: a view's base must not be a view")
	}
	if v.Base != (Network{}) {
		if err := v.Base.Validate(); err != nil {
			return "", fmt.Errorf("hw: view base: %w", err)
		}
	}
	if len(v.Survivors) < 2 {
		return "", fmt.Errorf("hw: a view needs at least 2 survivors, got %d", len(v.Survivors))
	}
	for i, c := range v.Survivors {
		if c < 0 || (i > 0 && c <= v.Survivors[i-1]) {
			return "", fmt.Errorf("hw: view survivor %d is base chip %d; want non-negative, strictly increasing ids", i, c)
		}
	}
	for i, o := range v.Overrides {
		if i > 0 && compareEdges(v.Overrides[i-1].Edge, o.Edge) >= 0 {
			return "", fmt.Errorf("hw: view override %d->%d is out of order", o.From, o.To)
		}
		n := len(v.Survivors)
		if o.From < 0 || o.To < 0 || o.From >= n || o.To >= n || o.From == o.To {
			return "", fmt.Errorf("hw: view override %d->%d is not an edge of the %d-chip view", o.From, o.To, n)
		}
		if err := checkEdge(o.Edge, o.Class); err != nil {
			return "", err
		}
	}
	if !v.Wires() {
		return "", fmt.Errorf("hw: the view wires no edges")
	}
	b := make([]byte, 0, 256+4*len(v.Survivors)+128*len(v.Overrides))
	b = append(b, "view;"...)
	b = strconv.AppendInt(b, int64(v.Base.Profile), 10)
	b = append(b, ';')
	b = appendClassDigest(b, v.Base.Local)
	b = append(b, ';')
	b = appendClassDigest(b, v.Base.Backhaul)
	b = append(b, ';')
	b = strconv.AppendInt(b, int64(v.Base.ClusterSize), 10)
	b = append(b, ';')
	b = append(b, v.Base.TableDigest...)
	b = append(b, ';')
	for _, c := range v.Survivors {
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, ',')
	}
	b = append(b, ';')
	for _, o := range v.Overrides {
		b = appendEdgeDigest(b, o.Edge, o.Class)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// appendClassDigest appends "bandwidth bits:setup:energy bits", the
// class part of an edge's digest record.
func appendClassDigest(b []byte, c LinkClass) []byte {
	b = appendHex16(b, math.Float64bits(c.BandwidthBytesPerSec))
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(c.SetupCycles), 10)
	b = append(b, ':')
	return appendHex16(b, math.Float64bits(c.EnergyPJPerByte))
}

// lookupView returns the registered view, or nil. Callers must not
// modify it.
func lookupView(digest string) *View {
	viewMu.RLock()
	defer viewMu.RUnlock()
	return viewReg[digest]
}

// ViewOf returns a copy of the view registered under digest, or
// ok=false if no view with that digest is registered in this process.
// The result store writes it as the view's record.
func ViewOf(digest string) (View, bool) {
	v := lookupView(digest)
	if v == nil {
		return View{}, false
	}
	return View{Base: v.Base, Survivors: slices.Clone(v.Survivors), Overrides: slices.Clone(v.Overrides)}, true
}
