// Package mem models the on-chip memory budget of one MCU: a named
// region allocator for L2 placement decisions and footprint reports
// used by the deployment planner to decide which tier (resident,
// double-buffered, streamed) a model fits into.
package mem

import (
	"fmt"
	"math"
	"sort"
)

// Level identifies a memory level of the hierarchy.
type Level int

const (
	L1 Level = iota
	L2
	L3
)

func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	default:
		return fmt.Sprintf("L?(%d)", int(l))
	}
}

// Region is one named allocation.
type Region struct {
	Name  string
	Bytes int
}

// Allocator tracks named allocations against a fixed capacity. It is a
// budget allocator (no addresses): the deployment planner only needs
// fit/no-fit decisions and footprint attribution.
type Allocator struct {
	capacity int
	used     int
	regions  map[string]int
}

// NewAllocator returns an allocator with the given capacity in bytes.
func NewAllocator(capacity int) *Allocator {
	if capacity < 0 {
		panic(fmt.Sprintf("mem: negative capacity %d", capacity))
	}
	return &Allocator{capacity: capacity, regions: make(map[string]int)}
}

// Alloc reserves bytes under name. It fails without side effects if
// the capacity would be exceeded or the name already exists.
func (a *Allocator) Alloc(name string, bytes int) error {
	if bytes < 0 {
		return fmt.Errorf("mem: negative allocation %q (%d)", name, bytes)
	}
	if _, ok := a.regions[name]; ok {
		return fmt.Errorf("mem: region %q already allocated", name)
	}
	if a.used+bytes > a.capacity {
		return fmt.Errorf("mem: %q needs %d bytes, only %d of %d free",
			name, bytes, a.capacity-a.used, a.capacity)
	}
	a.regions[name] = bytes
	a.used += bytes
	return nil
}

// Free releases a named region.
func (a *Allocator) Free(name string) error {
	b, ok := a.regions[name]
	if !ok {
		return fmt.Errorf("mem: region %q not allocated", name)
	}
	delete(a.regions, name)
	a.used -= b
	return nil
}

// Used returns the allocated byte count.
func (a *Allocator) Used() int { return a.used }

// Free bytes remaining.
func (a *Allocator) Available() int { return a.capacity - a.used }

// Capacity returns the total byte capacity.
func (a *Allocator) Capacity() int { return a.capacity }

// Regions returns the current allocations sorted by name.
func (a *Allocator) Regions() []Region {
	out := make([]Region, 0, len(a.regions))
	for n, b := range a.regions {
		out = append(out, Region{Name: n, Bytes: b})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Footprint itemizes one chip's L2 budget for a deployment.
type Footprint struct {
	// WeightBytes is resident weight storage (× 2 when
	// double-buffered).
	WeightBytes int
	// KVBytes is the resident KV-cache storage (decoders).
	KVBytes int
	// ActivationBytes is peak activation storage for one block.
	ActivationBytes int
	// CommBytes is staging for inbound/outbound partial tensors.
	CommBytes int
}

// Total returns the summed footprint, saturating at math.MaxInt
// instead of wrapping.
func (f Footprint) Total() int {
	total := 0
	for _, b := range [...]int{f.WeightBytes, f.KVBytes, f.ActivationBytes, f.CommBytes} {
		if b > math.MaxInt-total {
			return math.MaxInt
		}
		total += b
	}
	return total
}

// FitsIn reports whether the footprint fits the given budget.
func (f Footprint) FitsIn(budget int) bool { return f.Total() <= budget }

func (f Footprint) String() string {
	return fmt.Sprintf("weights=%d kv=%d act=%d comm=%d total=%d",
		f.WeightBytes, f.KVBytes, f.ActivationBytes, f.CommBytes, f.Total())
}
