package numeric

import (
	"strings"
	"testing"

	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/quant"
	"mcudist/internal/tensor"
)

// Cross-layer consistency: the element counts the numeric executor
// actually moved across the tree must equal the payload formulas the
// performance model charges for.
func TestCommVolumeMatchesPerformanceModel(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 41)
	const n, s = 4, 5
	p, err := partition.NewTensorParallel(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(w, p)
	if err != nil {
		t.Fatal(err)
	}
	e.Forward(tensor.Random(s, cfg.E, 1, 42))

	// Per sync: (n-1) hops, each carrying S×E elements; 2 syncs per
	// block.
	wantPerCollective := int64(n-1) * int64(s) * int64(cfg.E)
	syncs := int64(2 * cfg.L)
	if e.Stats.ReduceElems != syncs*wantPerCollective {
		t.Errorf("reduce elems %d, want %d", e.Stats.ReduceElems, syncs*wantPerCollective)
	}
	if e.Stats.BcastElems != syncs*wantPerCollective {
		t.Errorf("bcast elems %d, want %d", e.Stats.BcastElems, syncs*wantPerCollective)
	}

	// And the partition's payload accounting agrees: payload bytes ×
	// hops = element count × bytes per element.
	reduceBytes := p.ReducePayloadBytes(s) * int64(n-1) * syncs
	if reduceBytes != e.Stats.ReduceElems*int64(cfg.ReduceBytes) {
		t.Errorf("partition payload %d B != executor %d elems × %d B",
			reduceBytes, e.Stats.ReduceElems, cfg.ReduceBytes)
	}
}

// The reduce order is the tree's order: with float32 addition this is
// deterministic, so two identical runs agree bit for bit.
func TestReduceOrderDeterministic(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 43)
	x := tensor.Random(4, cfg.E, 1, 44)
	p, _ := partition.NewTensorParallel(cfg, 4)
	e1, _ := NewExecutor(w, p)
	e2, _ := NewExecutor(w, p)
	if d := tensor.MaxAbsDiff(e1.Forward(x), e2.Forward(x)); d != 0 {
		t.Fatalf("two identical runs differ by %g", d)
	}
}

// Different chip counts change the float32 summation order; outputs
// may differ in the last bits but never beyond rounding.
func TestChipCountOnlyRoundingDifferences(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 45)
	x := tensor.Random(4, cfg.E, 1, 46)
	var outs []*tensor.Mat
	for _, n := range []int{1, 2, 3, 4} {
		p, err := partition.NewTensorParallel(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := NewExecutor(w, p)
		outs = append(outs, e.Forward(x))
	}
	for i := 1; i < len(outs); i++ {
		if d := tensor.MaxAbsDiff(outs[0], outs[i]); d > 1e-4 {
			t.Errorf("chip count %d diverged by %g", i+1, d)
		}
	}
}

// Failure injection: a corrupted plan must be rejected before any
// computation happens. Both engines validate the plan: one whose head
// ranges no longer cover the model would compute a wrong answer.
func TestExecutorRejectsCorruptPlan(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 47)
	p, _ := partition.NewTensorParallel(cfg, 2)
	p.Heads[1].Lo++ // break coverage
	cal := mustCalibrate(t, w, tensor.Random(3, cfg.E, 1, 48))
	for _, tc := range []struct {
		engine string
		build  func() error
	}{
		{"float", func() error { _, err := NewExecutor(w, p); return err }},
		{"quant", func() error { _, err := NewQuantEngine(w, p, cal, ReduceInt32); return err }},
	} {
		t.Run(tc.engine, func(t *testing.T) {
			if tc.build() == nil {
				t.Errorf("%s engine accepted a corrupt plan", tc.engine)
			}
		})
	}
}

// Inputs that do not fit together fail at construction, naming the
// problem, in both number formats, rather than panicking mid-forward.
func TestConstructorsRejectMismatchedInputs(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 53)
	x := tensor.Random(3, cfg.E, 1, 54)
	cal := mustCalibrate(t, w, x)
	p, _ := partition.NewTensorParallel(cfg, 2)

	two := cfg
	two.L = 2
	wide := cfg
	wide.E = 64
	zero := *cal
	zero.Mid = append([]float32(nil), cal.Mid...)
	zero.Mid[1] = 0
	enc := encoderCfg()
	pEnc, _ := partition.NewTensorParallel(enc, 2)
	wEnc := model.NewWeights(enc, 55)
	wEnc.Blocks[1].B1 = wEnc.Blocks[1].B1[1:]
	short := model.NewWeights(cfg, 58)
	short.Blocks = short.Blocks[:2]

	for _, tc := range []struct {
		name  string
		build func() (*Executor, error)
		want  string
	}{
		{"int8 without a calibration", func() (*Executor, error) { return NewQuantEngine(w, p, nil, ReduceInt32) }, "needs a calibration"},
		{"int8 calibrated on fewer blocks", func() (*Executor, error) {
			return NewQuantEngine(w, p, mustCalibrate(t, model.NewWeights(two, 53), x), ReduceInt32)
		}, "MHSAIn covers 2 blocks, model test-decoder has 3"},
		{"int8 with a zero scale", func() (*Executor, error) { return NewQuantEngine(w, p, &zero, ReduceInt8) }, "Mid scale of block 1 is 0"},
		{"int8 with an unknown reduce mode", func() (*Executor, error) { return NewQuantEngine(w, p, cal, ReduceMode(7)) }, "unknown reduce mode 7"},
		{"float32 weights of another width", func() (*Executor, error) { return NewExecutor(model.NewWeights(wide, 56), p) }, "block 0 WQ is 64x32, model test-decoder needs 32x32"},
		{"int8 weights of another width", func() (*Executor, error) { return NewQuantEngine(model.NewWeights(wide, 56), p, cal, ReduceInt32) }, "block 0 WQ is 64x32"},
		{"float32 weights of fewer blocks", func() (*Executor, error) { return NewExecutor(model.NewWeights(two, 57), p) }, "weights hold 2 blocks, model test-decoder has 3"},
		{"float32 bias of another length", func() (*Executor, error) { return NewExecutor(wEnc, pEnc) }, "block 1 B1 has length 47, model test-encoder needs 48"},
		{"calibrating weights short of their config", func() (*Executor, error) { _, err := Calibrate(short, x); return nil, err }, "weights hold 2 blocks, model test-decoder has 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := tc.build()
			if err == nil {
				t.Fatalf("accepted (%T)", e)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not say %q", err, tc.want)
			}
		})
	}
}

func TestExecutorInputValidation(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 48)
	p, _ := partition.NewTensorParallel(cfg, 2)
	e, _ := NewExecutor(w, p)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong-width input did not panic")
			}
		}()
		e.Forward(tensor.Random(2, cfg.E+1, 1, 1))
	}()
	e2, _ := NewExecutor(w, p)
	e2.Forward(tensor.Random(2, cfg.E, 1, 1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second prompt on a filled cache did not panic")
			}
		}()
		e2.Forward(tensor.Random(2, cfg.E, 1, 2))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("multi-row step did not panic")
			}
		}()
		e2.ForwardStep(tensor.Random(2, cfg.E, 1, 3))
	}()
}

func TestQuantEngineRejectsBaselinePlan(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 49)
	cal := mustCalibrate(t, w, tensor.Random(3, cfg.E, 1, 50))
	p, _ := partition.NewReplicated(cfg, 2)
	if _, err := NewQuantEngine(w, p, cal, ReduceInt32); err == nil {
		t.Fatal("replicated plan accepted by quant engine")
	}
}

// Int8-reduce saturating addition must saturate, not wrap.
func TestSaturatingAdd(t *testing.T) {
	a := quant.NewQ(1, 2, 1)
	b := quant.NewQ(1, 2, 1)
	a.Data[0], b.Data[0] = 100, 100
	a.Data[1], b.Data[1] = -100, -100
	saturatingAdd(a, b)
	if a.Data[0] != 127 {
		t.Fatalf("positive saturation gave %d", a.Data[0])
	}
	if a.Data[1] != -128 {
		t.Fatalf("negative saturation gave %d", a.Data[1])
	}
}
