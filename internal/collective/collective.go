// Package collective introduces a per-synchronization view of the
// chip-to-chip collectives: a taxonomy of SyncClasses (which phase and
// site of the forward pass a synchronization serves) and a Plan that
// binds each class to an interconnect topology. The PR 2/3 ablations
// showed no single shape wins everywhere — the ring's payload/N chunks
// take the large-payload prompt collectives while the tree's few
// serialized setups keep the small-payload autoregressive points — so
// the topology becomes a per-class decision instead of a per-run one.
//
// A Plan is a small comparable value: it participates in the evalpool
// report-cache key exactly like every hardware parameter, and its zero
// value binds nothing, reproducing the single-topology behavior
// byte for byte.
package collective

import (
	"fmt"
	"strings"

	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

// SyncClass classifies one chip synchronization by the phase of the
// forward pass it serves. The tensor-parallel scheme runs two
// synchronizations per block (after the MHSA and after the FFN), in
// either the prompt-prefill or the autoregressive-decode regime; the
// replicated baseline exchanges K/V context before attention and
// output rows after the block.
type SyncClass int

const (
	// PrefillMHSA is the post-attention all-reduce of a prompt-mode
	// block (large payloads: one row per prompt token).
	PrefillMHSA SyncClass = iota
	// PrefillFFN is the post-FFN all-reduce of a prompt-mode block.
	PrefillFFN
	// DecodeMHSA is the post-attention all-reduce of an autoregressive
	// step (single-row payloads).
	DecodeMHSA
	// DecodeFFN is the post-FFN all-reduce of an autoregressive step.
	DecodeFFN
	// KVExchange is the replicated baseline's pre-attention K/V
	// context exchange.
	KVExchange
	// OutputExchange is the replicated baseline's post-block output
	// row exchange.
	OutputExchange

	// NumSyncClasses is the sentinel size of the class axis.
	NumSyncClasses
)

// Classes returns every synchronization class, in enum order.
func Classes() []SyncClass {
	out := make([]SyncClass, NumSyncClasses)
	for i := range out {
		out[i] = SyncClass(i)
	}
	return out
}

// Valid reports whether c names a synchronization class.
func (c SyncClass) Valid() bool { return c >= 0 && c < NumSyncClasses }

func (c SyncClass) String() string {
	switch c {
	case PrefillMHSA:
		return "prefill-mhsa"
	case PrefillFFN:
		return "prefill-ffn"
	case DecodeMHSA:
		return "decode-mhsa"
	case DecodeFFN:
		return "decode-ffn"
	case KVExchange:
		return "kv-exchange"
	case OutputExchange:
		return "output-exchange"
	default:
		return fmt.Sprintf("syncclass(%d)", int(c))
	}
}

// ActiveClasses returns the synchronization classes a run of the given
// strategy and mode executes, in execution order within a block: the
// tensor-parallel scheme syncs after the MHSA then after the FFN
// (prefill or decode flavor per the mode); the replicated baseline
// exchanges K/V context then output rows; the pipeline transfers only
// on its handoff chain and has no collective synchronizations. This is
// the single source of truth the deployment's block program (its
// Classes and the classes of its sync steps) and the plan autotuner
// share.
func ActiveClasses(st partition.Strategy, mode model.Mode) []SyncClass {
	switch st {
	case partition.TensorParallel:
		if mode == model.Autoregressive {
			return []SyncClass{DecodeMHSA, DecodeFFN}
		}
		return []SyncClass{PrefillMHSA, PrefillFFN}
	case partition.Replicated:
		return []SyncClass{KVExchange, OutputExchange}
	default:
		return nil
	}
}

// Plan binds synchronization classes to interconnect topologies. An
// unbound class executes on the run topology (hw.Params.Topology), so
// the zero Plan is exactly today's single-topology behavior. Plan is a
// comparable value type: it rides in deploy.Options and therefore in
// the evalpool cache key, so two configurations collide on one cache
// entry exactly when their plans match.
type Plan struct {
	// choice[c] is 1 + the bound topology for class c; 0 leaves the
	// class on the run topology. Kept unexported so a Plan can only
	// hold valid bindings.
	choice [NumSyncClasses]int8
}

// IsZero reports whether the plan binds no class (the uniform,
// single-topology behavior).
func (p Plan) IsZero() bool { return p == Plan{} }

// With returns a copy of the plan with class c bound to topology t.
// It panics on an invalid class or topology — bindings are built in
// code or through ParsePlan, which validates its input.
func (p Plan) With(c SyncClass, t hw.Topology) Plan {
	if !c.Valid() {
		panic(fmt.Sprintf("collective: invalid sync class %d", int(c)))
	}
	if !t.Valid() {
		panic(fmt.Sprintf("collective: invalid topology %d", int(t)))
	}
	p.choice[c] = 1 + int8(t)
	return p
}

// Explicit returns the topology bound to class c, if any.
func (p Plan) Explicit(c SyncClass) (hw.Topology, bool) {
	if !c.Valid() || p.choice[c] == 0 {
		return 0, false
	}
	return hw.Topology(p.choice[c] - 1), true
}

// Topology resolves class c under the plan: its explicit binding, or
// the run topology.
func (p Plan) Topology(c SyncClass, run hw.Topology) hw.Topology {
	if t, ok := p.Explicit(c); ok {
		return t
	}
	return run
}

// String renders the plan in ParsePlan's flag syntax, compressing the
// prefill and decode pairs when both members share a topology
// ("prefill=ring,decode=tree"). The zero plan prints as "uniform".
// ParsePlan(p.String()) round-trips every plan.
func (p Plan) String() string {
	if p.IsZero() {
		return "uniform"
	}
	var parts []string
	emit := func(key string, c SyncClass) {
		if t, ok := p.Explicit(c); ok {
			parts = append(parts, key+"="+t.String())
		}
	}
	pair := func(key string, a, b SyncClass) {
		ta, oka := p.Explicit(a)
		tb, okb := p.Explicit(b)
		if oka && okb && ta == tb {
			parts = append(parts, key+"="+ta.String())
			return
		}
		emit(a.String(), a)
		emit(b.String(), b)
	}
	pair("prefill", PrefillMHSA, PrefillFFN)
	pair("decode", DecodeMHSA, DecodeFFN)
	emit("kv", KVExchange)
	emit("output", OutputExchange)
	return strings.Join(parts, ",")
}

// MarshalText emits the flag-syntax spelling ("prefill=ring,decode=tree",
// "uniform" for the zero plan), so JSON/CSV sinks — the persistent
// result store among them — serialize a Plan readably instead of
// dropping its unexported binding array.
func (p Plan) MarshalText() ([]byte, error) {
	return []byte(p.String()), nil
}

// UnmarshalText parses any spelling ParsePlan accepts, so
// MarshalText's output round-trips bit for bit.
func (p *Plan) UnmarshalText(text []byte) error {
	v, err := ParsePlan(string(text))
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// classesFor maps one assignment key of the flag syntax to the classes
// it binds.
func classesFor(key string) ([]SyncClass, error) {
	switch key {
	case "prefill":
		return []SyncClass{PrefillMHSA, PrefillFFN}, nil
	case "decode":
		return []SyncClass{DecodeMHSA, DecodeFFN}, nil
	case "prefill-mhsa":
		return []SyncClass{PrefillMHSA}, nil
	case "prefill-ffn":
		return []SyncClass{PrefillFFN}, nil
	case "decode-mhsa":
		return []SyncClass{DecodeMHSA}, nil
	case "decode-ffn":
		return []SyncClass{DecodeFFN}, nil
	case "kv", "kv-exchange":
		return []SyncClass{KVExchange}, nil
	case "output", "out", "output-exchange":
		return []SyncClass{OutputExchange}, nil
	case "all":
		return Classes(), nil
	default:
		return nil, fmt.Errorf("collective: unknown sync class %q (want prefill | decode | prefill-mhsa | prefill-ffn | decode-mhsa | decode-ffn | kv | output | all)", key)
	}
}

// ParsePlan parses the command-line plan syntax: class=topology
// assignments separated by commas or pluses, e.g.
// "prefill=ring,decode=tree" (the "+" spelling lets the assignments
// live inside a CSV cell, so cmd/sweep's autotune output pastes back
// into -plan). Classes accept the group spellings prefill / decode /
// all next to the six exact class names (plus kv and output
// shorthands); topologies accept every spelling hw.ParseTopology
// does. Later assignments overwrite earlier ones, so
// "all=tree,prefill=ring" reads naturally. The empty string (and
// "uniform") is the zero plan.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "uniform") {
		return p, nil
	}
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == '+' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Plan{}, fmt.Errorf("collective: bad plan assignment %q (want class=topology)", part)
		}
		classes, err := classesFor(strings.ToLower(strings.TrimSpace(key)))
		if err != nil {
			return Plan{}, err
		}
		topo, err := hw.ParseTopology(val)
		if err != nil {
			return Plan{}, fmt.Errorf("collective: plan assignment %q: %w", part, err)
		}
		for _, c := range classes {
			p = p.With(c, topo)
		}
	}
	return p, nil
}
