package resultstore

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"mcudist/internal/core"
	"mcudist/internal/hw"
	"mcudist/internal/model"
)

// Every leaf of System and Workload reaches the key: changing any one
// of them — each int by one, each float by one ulp, each bool, each
// string, each element of the collective plan's unexported binding
// array — changes the digest. A leaf the walk skipped would let two
// configurations share a stored report.
func TestDigestChangesWithEveryLeaf(t *testing.T) {
	sys := core.DefaultSystem(64)
	sys.HW.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
	sys.HW.Mem = hw.LPDDR5()
	wl := core.Workload{Model: model.TinyLlamaScaled64(), Mode: model.Prompt}
	base := Digest(sys, wl)

	leaves := 0
	var visit func(v reflect.Value, path string)
	visit = func(v reflect.Value, path string) {
		if !v.CanSet() {
			// An unexported field: reach it through its address.
			v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				visit(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		case reflect.Array:
			for i := range v.Len() {
				visit(v.Index(i), path+"[]")
			}
			return
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Fatalf("%s: no mutation for a %v", path, v.Kind())
		}
		leaves++
		if Digest(sys, wl) == base {
			t.Errorf("changing %s did not change the digest", path)
		}
		v.Set(old)
	}
	visit(reflect.ValueOf(&sys).Elem(), "System")
	visit(reflect.ValueOf(&wl).Elem(), "Workload")
	if Digest(sys, wl) != base {
		t.Fatal("the walk did not restore the configuration")
	}
	want := typeLeaves(reflect.TypeFor[core.System]()) + typeLeaves(reflect.TypeFor[core.Workload]())
	if leaves != want {
		t.Errorf("visited %d leaves, want all %d of System and Workload", leaves, want)
	}
}

// typeLeaves counts the leaves of a struct or array type.
func typeLeaves(typ reflect.Type) int {
	switch typ.Kind() {
	case reflect.Struct:
		n := 0
		for i := range typ.NumField() {
			n += typeLeaves(typ.Field(i).Type)
		}
		return n
	case reflect.Array:
		return typ.Len() * typeLeaves(typ.Elem())
	}
	return 1
}

// The key walk encodes into a stack buffer and allocates only the
// digest string: nothing per leaf, and no shape string per call (the
// shape is hashed once per process; prepended to every key, the
// ~1.2 KB rendering would overflow the buffer). The %#v rendering the
// walk replaced cost six allocations per key.
func TestDigestAllocs(t *testing.T) {
	sys := core.DefaultSystem(64)
	sys.HW.Network = hw.Network{Profile: hw.NetView, TableDigest: goldenViewUniform}
	wl := core.Workload{Model: model.TinyLlamaScaled64(), Mode: model.Prompt}
	if a := testing.AllocsPerRun(100, func() { Digest(sys, wl) }); a > 1 {
		t.Errorf("Digest allocates %.0f times per key, want 1", a)
	}
}
