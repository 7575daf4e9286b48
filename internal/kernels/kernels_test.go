package kernels

import (
	"testing"
	"testing/quick"

	"mcudist/internal/hw"
)

var int8Elem = Elem{Weight: 1, Act: 1, Acc: 4}

func TestLinearCountsMACsAndBytes(t *testing.T) {
	p := hw.Siracusa()
	c := Linear(p, 16, 512, 512, int8Elem)
	if c.MACs != 16*512*512 {
		t.Fatalf("MACs = %d", c.MACs)
	}
	if c.WeightBytes != 512*512 {
		t.Fatalf("weight bytes = %d", c.WeightBytes)
	}
	if c.ActInBytes != 16*512 || c.ActOutBytes != 16*512 {
		t.Fatalf("act bytes = %d/%d", c.ActInBytes, c.ActOutBytes)
	}
}

func TestLinearUtilizationReasonable(t *testing.T) {
	p := hw.Siracusa()
	// A large square GEMM should achieve decent utilization.
	c := Linear(p, 128, 512, 512, int8Elem)
	u := Utilization(p, c)
	if u < 0.5 || u > 1.0 {
		t.Fatalf("large GEMM utilization = %g, want in [0.5, 1]", u)
	}
}

func TestSmallKernelsLoseUtilization(t *testing.T) {
	p := hw.Siracusa()
	big := Utilization(p, Linear(p, 128, 512, 512, int8Elem))
	small := Utilization(p, Linear(p, 128, 512, 8, int8Elem))
	if small >= big {
		t.Fatalf("small kernel utilization %g >= big %g; sub-linear scaling lost", small, big)
	}
}

// The paper's observation: splitting a kernel N ways yields less than
// N× cycle reduction.
func TestKernelSplitIsSubLinear(t *testing.T) {
	p := hw.Siracusa()
	full := Linear(p, 268, 512, 512, int8Elem).Cycles
	quarter := Linear(p, 268, 512, 128, int8Elem).Cycles
	if quarter*4 <= full {
		t.Fatalf("4×quarter = %g <= full %g: splitting scaled super-linearly", quarter*4, full)
	}
	if quarter >= full {
		t.Fatalf("quarter kernel %g not faster than full %g", quarter, full)
	}
}

func TestGEMVParallelizesOverOutputs(t *testing.T) {
	p := hw.Siracusa()
	// M=1 GEMV must still use all cores (split over N).
	one := Linear(p, 1, 512, 512, int8Elem)
	peak := float64(p.Chip.Cores * p.Chip.MACsPerCorePerCycle)
	minCycles := float64(one.MACs) / peak
	if one.Cycles < minCycles {
		t.Fatalf("GEMV cycles %g below physical minimum %g", one.Cycles, minCycles)
	}
	if one.Cycles > 4*minCycles {
		t.Fatalf("GEMV cycles %g more than 4× minimum %g: overhead model too heavy", one.Cycles, minCycles)
	}
}

func TestMatMulActHasNoWeightBytes(t *testing.T) {
	p := hw.Siracusa()
	c := MatMulAct(p, 1, 64, 128, int8Elem)
	if c.WeightBytes != 0 {
		t.Fatalf("attention matmul reported %d weight bytes", c.WeightBytes)
	}
	if c.ActInBytes != (64 + 64*128) {
		t.Fatalf("act in bytes = %d", c.ActInBytes)
	}
}

func TestElementwiseKernelsScaleWithElems(t *testing.T) {
	p := hw.Siracusa()
	small := Softmax(p, 1, 128, int8Elem).Cycles
	big := Softmax(p, 16, 128, int8Elem).Cycles
	if big <= small {
		t.Fatal("softmax cost did not grow with rows")
	}
	setup := float64(p.Chip.KernelSetupCycles)
	// 16× the elements should cost no more than 16× the variable part.
	if (big - setup) > 16.5*(small-setup) {
		t.Fatalf("softmax scaling anomalous: %g vs %g", big, small)
	}
}

func TestReduceAddAndRequantBytes(t *testing.T) {
	p := hw.Siracusa()
	r := ReduceAdd(p, 16, 512, int8Elem)
	if r.ActInBytes != 2*16*512*4 || r.ActOutBytes != 16*512*4 {
		t.Fatalf("reduce-add bytes %d/%d", r.ActInBytes, r.ActOutBytes)
	}
	q := Requant(p, 16, 512, int8Elem)
	if q.ActInBytes != 16*512*4 || q.ActOutBytes != 16*512 {
		t.Fatalf("requant bytes %d/%d", q.ActInBytes, q.ActOutBytes)
	}
}

func TestKVAppendMovesBothKAndV(t *testing.T) {
	p := hw.Siracusa()
	c := KVAppend(p, 1, 64, int8Elem)
	if c.ActOutBytes != 2*64 {
		t.Fatalf("kv append bytes = %d, want 128", c.ActOutBytes)
	}
}

func TestDMATime(t *testing.T) {
	if got := DMATime(0, 8, 64, 0); got != 0 {
		t.Fatalf("zero bytes cost %g", got)
	}
	// 800 bytes at 8 B/cyc + one setup of 64.
	if got := DMATime(800, 8, 64, 0); got != 164 {
		t.Fatalf("DMA time = %g, want 164", got)
	}
	// Tiled: 3 tiles of ≤400 bytes → 3 setups.
	if got := DMATime(1000, 8, 64, 400); got != 125+3*64 {
		t.Fatalf("tiled DMA time = %g, want %g", got, 125.0+3*64)
	}
}

func TestRoPEAndGELUAndNormPositive(t *testing.T) {
	p := hw.Siracusa()
	for _, c := range []Cost{
		RoPE(p, 4, 64, int8Elem),
		GELU(p, 4, 512, int8Elem),
		Norm(p, 4, 512, int8Elem),
		ResidualAdd(p, 4, 512, int8Elem),
	} {
		if c.Cycles <= 0 {
			t.Errorf("%s has non-positive cycles", c.Name)
		}
		if c.MACs != 0 {
			t.Errorf("%s reports MACs", c.Name)
		}
	}
}

// Property: cycles are monotone in every GEMM dimension.
func TestPropertyLinearMonotone(t *testing.T) {
	p := hw.Siracusa()
	f := func(mRaw, kRaw, nRaw uint8) bool {
		m := 1 + int(mRaw)%64
		k := 1 + int(kRaw)%64
		n := 1 + int(nRaw)%64
		base := Linear(p, m, k, n, int8Elem).Cycles
		return Linear(p, m+1, k, n, int8Elem).Cycles >= base &&
			Linear(p, m, k+1, n, int8Elem).Cycles >= base &&
			Linear(p, m, k, n+1, int8Elem).Cycles >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: utilization never exceeds 1 (no kernel beats peak HW).
func TestPropertyUtilizationBounded(t *testing.T) {
	p := hw.Siracusa()
	f := func(mRaw, kRaw, nRaw uint16) bool {
		m := 1 + int(mRaw)%512
		k := 1 + int(kRaw)%512
		n := 1 + int(nRaw)%512
		u := Utilization(p, Linear(p, m, k, n, int8Elem))
		return u > 0 && u <= 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearPanicsOnBadShape(t *testing.T) {
	p := hw.Siracusa()
	defer func() {
		if recover() == nil {
			t.Error("bad shape did not panic")
		}
	}()
	Linear(p, 0, 1, 1, int8Elem)
}

// Utilization returns achieved/peak MAC throughput of a cost on the
// given chip: 1.0 means every cycle retires the peak MAC count.
func Utilization(p hw.Params, c Cost) float64 {
	if c.Cycles <= 0 || c.MACs == 0 {
		return 0
	}
	peak := float64(p.Chip.Cores * p.Chip.MACsPerCorePerCycle)
	return float64(c.MACs) / (c.Cycles * peak)
}
