package numeric

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/tensor"
)

// outputDigests pins the sha256 of every output bit the package
// computes: Calibrate's six scale vectors, the float32 outputs with
// `%+v` of Stats, and the int8 outputs under each ReduceMode, for a
// prompt plus two decode steps (decoders) or the prompt alone (the
// encoder), at every legal chip count from 1 to 4. The other tests hold
// outputs to tolerances; this one holds a refactor of the executor to
// every bit. Record a row only from the commit before a change.
var outputDigests = []struct{ cfg, path, digest string }{
	{"decoder", "calibration", "f48c77527e809661b72cd98963c5fb7322cd3bd3c2fac402aef0d7dd3e5c4a71"},
	{"decoder", "float32", "4bb3d4c32968afdc3db0683704b3feb3f9a3dadaa02e2b6dbc20fd11b41ea2d1"},
	{"decoder", "int32", "74f439696682a171b50b677fc89ccc47e1476a97a32e9a4ef278a9aa78ec37ea"},
	{"decoder", "int8", "c34b2ca205b3f839aefaef23756adddc73626394522d690279885d3435d71bc5"},
	{"decoder", "int16", "0db7c2a7dbd3bb43fcd9d51f8b9600c6f4900bed0052dad56b6b507080348b8c"},
	{"encoder", "calibration", "4bac49b7f2ffab7b900f96287caa3eccf2258b711a27bf40afadf766fb68b175"},
	{"encoder", "float32", "932bc56a863eddb348f06986d523deb49305f2faa252c9a4958cb7747d85d1eb"},
	{"encoder", "int32", "c46dd6b16b16f19593fc1cb05d52840273cc488e7970acf0c22d41bf59e39d03"},
	{"encoder", "int8", "6f19bd3eb2a3c771eda8d8e1138bbc3955af8929ba4fc47aac2ecbf1f16318aa"},
	{"encoder", "int16", "a9955b115aa235158e1c4797a035015f5b830caf7b1f9a765d078090a85c5441"},
	{"gated", "calibration", "947b6f944b027904c4c46b8bf786ddada3f2178ef3698cbc0f670cec315634a4"},
	{"gated", "float32", "2a912099fcae709cb0464942ca6634b183569fd20c0f830cef61571d3ee8e459"},
	{"gated", "int32", "7d9f9771e4dd6776fea45347a2990647b46532a7e6221e0fdb0a86358c95acf5"},
	{"gated", "int8", "58f644217eb45adae71e7894c59b5857bdcf6521a9db1ae40feaee4cd4ee2a24"},
	{"gated", "int16", "4423bb69b307b551137347f35324fddf20c9a390226d97d0f662d731a0464ad3"},
	{"gqa", "calibration", "cecb3375e8a58a50e6450b8924fd4b48e911abe7d4464a33adeaa5940761276d"},
	{"gqa", "float32", "dbd12a3ca9a7f044965ee7e399328446cd32bb67623f9e4e1146a4012d2591a9"},
	{"gqa", "int32", "1e96d55cb6af7d1fab2d78add6ab425f61e288197eaeed7516c801e9b7a00660"},
	{"gqa", "int8", "d7caf2c3000f43aa435cc7dd712e3cb6985456082f451a3334e538ed785099ae"},
	{"gqa", "int16", "6e219e5567777873602daf209168cef1a75be3d004a38f04945d593a809ccf50"},
}

func TestOutputDigests(t *testing.T) {
	gated := testCfg()
	gated.FFN = model.FFNGated
	cfgs := map[string]model.Config{
		"decoder": testCfg(), "encoder": encoderCfg(), "gated": gated, "gqa": gqaCfg(),
	}
	got := map[string]map[string]hash.Hash{}
	for name, cfg := range cfgs {
		got[name] = digestOutputs(t, cfg)
	}
	for _, row := range outputDigests {
		sum := fmt.Sprintf("%x", got[row.cfg][row.path].Sum(nil))
		if sum != row.digest {
			t.Errorf("%s %s: digest %s, want %s", row.cfg, row.path, sum, row.digest)
		}
	}
}

// digestOutputs runs cfg through Calibrate and every executor at each
// legal chip count, hashing what each path computes.
func digestOutputs(t *testing.T, cfg model.Config) map[string]hash.Hash {
	t.Helper()
	const prompt, steps = 5, 2
	w := model.NewWeights(cfg, 61)
	x := tensor.Random(prompt+steps, cfg.E, 1, 62)
	cal := mustCalibrate(t, w, x.SliceRows(0, prompt))
	h := map[string]hash.Hash{}
	for _, path := range []string{"calibration", "float32", "int32", "int8", "int16"} {
		h[path] = sha256.New()
	}
	for _, scales := range [][]float32{cal.MHSAIn, cal.AttOut, cal.AttProj, cal.FCIn, cal.Mid, cal.FCOut} {
		hashFloats(h["calibration"], scales)
	}
	run := func(hh hash.Hash, e *Executor) {
		hashMat(hh, e.Forward(x.SliceRows(0, prompt)))
		if cfg.Arch != model.Decoder {
			return
		}
		for i := prompt; i < prompt+steps; i++ {
			hashMat(hh, e.ForwardStep(x.SliceRows(i, i+1)))
		}
	}
	for n := 1; n <= 4; n++ {
		p, err := partition.NewTensorParallel(cfg, n)
		if err != nil {
			continue
		}
		e, err := NewExecutor(w, p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h["float32"], "chips %d\n", n)
		run(h["float32"], e)
		fmt.Fprintf(h["float32"], "%+v\n", e.Stats)
		for _, mode := range []struct {
			path string
			mode ReduceMode
		}{{"int32", ReduceInt32}, {"int8", ReduceInt8}, {"int16", ReduceInt16}} {
			q, err := NewQuantEngine(w, p, cal, mode.mode)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h[mode.path], "chips %d\n", n)
			run(h[mode.path], q)
		}
	}
	return h
}

func hashMat(h hash.Hash, m *tensor.Mat) {
	fmt.Fprintf(h, "%dx%d\n", m.Rows, m.Cols)
	hashFloats(h, m.Data)
}

func hashFloats(h hash.Hash, v []float32) {
	var b [4]byte
	for _, f := range v {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
		h.Write(b[:])
	}
}
