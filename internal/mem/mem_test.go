package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAllocFreeCycle(t *testing.T) {
	a := NewAllocator(100)
	if err := a.Alloc("w", 60); err != nil {
		t.Fatal(err)
	}
	if err := a.Alloc("kv", 40); err != nil {
		t.Fatal(err)
	}
	if a.Available() != 0 {
		t.Fatalf("available = %d, want 0", a.Available())
	}
	if err := a.Alloc("x", 1); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if err := a.Free("w"); err != nil {
		t.Fatal(err)
	}
	if a.Used() != 40 {
		t.Fatalf("used = %d, want 40", a.Used())
	}
	if err := a.Alloc("x", 60); err != nil {
		t.Fatalf("realloc after free failed: %v", err)
	}
}

func TestAllocDuplicateName(t *testing.T) {
	a := NewAllocator(100)
	if err := a.Alloc("w", 10); err != nil {
		t.Fatal(err)
	}
	if err := a.Alloc("w", 10); err == nil {
		t.Fatal("duplicate name accepted")
	}
	// The rejected duplicate must not consume capacity, resize the
	// original region, or leave a phantom entry behind.
	if a.Used() != 10 {
		t.Fatalf("failed duplicate changed used to %d", a.Used())
	}
	rs := a.Regions()
	if len(rs) != 1 || rs[0].Name != "w" || rs[0].Bytes != 10 {
		t.Fatalf("failed duplicate disturbed regions: %v", rs)
	}
}

func TestAllocNegative(t *testing.T) {
	a := NewAllocator(100)
	if err := a.Alloc("w", -1); err == nil {
		t.Fatal("negative allocation accepted")
	}
}

func TestFreeUnknown(t *testing.T) {
	a := NewAllocator(100)
	if err := a.Free("nope"); err == nil {
		t.Fatal("freeing unknown region succeeded")
	}
}

func TestFailedAllocHasNoSideEffects(t *testing.T) {
	a := NewAllocator(50)
	if err := a.Alloc("w", 40); err != nil {
		t.Fatal(err)
	}
	_ = a.Alloc("big", 20) // fails
	if a.Used() != 40 {
		t.Fatalf("failed alloc changed used to %d", a.Used())
	}
	if len(a.Regions()) != 1 {
		t.Fatalf("failed alloc left %d regions", len(a.Regions()))
	}
	if a.Available() != 10 {
		t.Fatalf("failed alloc changed available to %d", a.Available())
	}
	// The allocator must still be fully usable after the rejection.
	if err := a.Alloc("fits", 10); err != nil {
		t.Fatalf("exact-fit alloc after rejection failed: %v", err)
	}
}

func TestRegionsSorted(t *testing.T) {
	a := NewAllocator(100)
	for _, n := range []string{"z", "a", "m"} {
		if err := a.Alloc(n, 10); err != nil {
			t.Fatal(err)
		}
	}
	rs := a.Regions()
	if rs[0].Name != "a" || rs[1].Name != "m" || rs[2].Name != "z" {
		t.Fatalf("regions not sorted: %v", rs)
	}
}

func TestZeroByteRegionAllowed(t *testing.T) {
	a := NewAllocator(10)
	if err := a.Alloc("empty", 0); err != nil {
		t.Fatal(err)
	}
	if a.Used() != 0 {
		t.Fatal("zero-byte region consumed capacity")
	}
}

func TestFootprint(t *testing.T) {
	f := Footprint{WeightBytes: 100, KVBytes: 20, ActivationBytes: 30, CommBytes: 5}
	if f.Total() != 155 {
		t.Fatalf("total = %d", f.Total())
	}
	if !f.FitsIn(155) {
		t.Fatal("exact fit rejected")
	}
	if f.FitsIn(154) {
		t.Fatal("overflow accepted")
	}
	huge := Footprint{WeightBytes: math.MaxInt, KVBytes: 20, ActivationBytes: 30}
	if huge.Total() != math.MaxInt || huge.FitsIn(1<<30) {
		t.Fatalf("total = %d, want it saturated at math.MaxInt", huge.Total())
	}
}

func TestLevelString(t *testing.T) {
	if L1.String() != "L1" || L2.String() != "L2" || L3.String() != "L3" {
		t.Fatal("level names wrong")
	}
}

// Property: used + available == capacity under any alloc/free sequence.
func TestPropertyConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		a := NewAllocator(1 << 16)
		names := []string{}
		for i, op := range ops {
			if op%3 == 0 && len(names) > 0 {
				_ = a.Free(names[0])
				names = names[1:]
			} else {
				name := string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+(i/26)%26))
				if a.Alloc(name, int(op)) == nil {
					names = append(names, name)
				}
			}
			if a.Used()+a.Available() != a.Capacity() {
				return false
			}
			if a.Used() < 0 || a.Used() > a.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum of region sizes equals Used.
func TestPropertyRegionSumMatchesUsed(t *testing.T) {
	f := func(sizes []uint8) bool {
		a := NewAllocator(1 << 20)
		for i, s := range sizes {
			name := "r" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
			_ = a.Alloc(name, int(s))
		}
		sum := 0
		for _, r := range a.Regions() {
			sum += r.Bytes
		}
		return sum == a.Used()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
