// Package mem models the on-chip memory budget of one MCU: the L2
// footprint report the deployment planner uses to decide which tier
// (resident, double-buffered, streamed) a model fits into.
package mem

import (
	"fmt"
	"math"
)

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
