package interconnect

import (
	"fmt"
	"testing"
	"testing/quick"

	"mcudist/internal/hw"
)

func TestBuildTreeEightChipsGroupsOfFour(t *testing.T) {
	tr, err := BuildTree(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fig. 1 structure: chips 1-3 reduce onto 0, chips 5-7 onto 4,
	// then 4 onto 0.
	for _, c := range []int{1, 2, 3} {
		if tr.Parent[c] != 0 {
			t.Errorf("parent[%d] = %d, want 0", c, tr.Parent[c])
		}
	}
	for _, c := range []int{5, 6, 7} {
		if tr.Parent[c] != 4 {
			t.Errorf("parent[%d] = %d, want 4", c, tr.Parent[c])
		}
	}
	if tr.Parent[4] != 0 {
		t.Errorf("parent[4] = %d, want 0", tr.Parent[4])
	}
	if tr.Root != 0 {
		t.Errorf("root = %d, want 0", tr.Root)
	}
	if tr.Depth() != 2 {
		t.Errorf("depth = %d, want 2", tr.Depth())
	}
}

func TestBuildTreeSingleChip(t *testing.T) {
	tr, err := BuildTree(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.ReduceHops()) != 0 || len(tr.BroadcastHops()) != 0 {
		t.Fatal("single chip should have no hops")
	}
}

func TestBuildTree64ChipsDepth(t *testing.T) {
	tr, err := BuildTree(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// 64 chips in groups of 4: 64 -> 16 -> 4 -> 1, depth 3.
	if tr.Depth() != 3 {
		t.Errorf("depth = %d, want 3", tr.Depth())
	}
}

func TestFlatTreeDepthOne(t *testing.T) {
	tr, err := BuildTree(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 1 {
		t.Errorf("flat tree depth = %d, want 1", tr.Depth())
	}
	if len(tr.Children[0]) != 15 {
		t.Errorf("flat root has %d children, want 15", len(tr.Children[0]))
	}
}

func TestBuildTreeErrors(t *testing.T) {
	if _, err := BuildTree(0, 4); err == nil {
		t.Error("zero chips accepted")
	}
	if _, err := BuildTree(4, 1); err == nil {
		t.Error("group size 1 accepted")
	}
}

func TestReduceHopsDependencyOrder(t *testing.T) {
	tr, _ := BuildTree(8, 4)
	hops := tr.ReduceHops()
	if len(hops) != 7 {
		t.Fatalf("hops = %d, want 7", len(hops))
	}
	// A chip must appear as sender only after all its children sent.
	sent := map[int]bool{}
	childrenDone := func(n int) bool {
		for _, c := range tr.Children[n] {
			if !sent[c] {
				return false
			}
		}
		return true
	}
	for _, h := range hops {
		if !childrenDone(h.From) {
			t.Fatalf("hop %v before children of %d completed", h, h.From)
		}
		sent[h.From] = true
	}
}

func TestBroadcastHopsDependencyOrder(t *testing.T) {
	tr, _ := BuildTree(16, 4)
	hops := tr.BroadcastHops()
	if len(hops) != 15 {
		t.Fatalf("hops = %d, want 15", len(hops))
	}
	have := map[int]bool{tr.Root: true}
	for _, h := range hops {
		if !have[h.From] {
			t.Fatalf("hop %v from chip without data", h)
		}
		have[h.To] = true
	}
	if len(have) != 16 {
		t.Fatalf("broadcast reached %d chips, want 16", len(have))
	}
}

func TestSubtreeOrder(t *testing.T) {
	tr, _ := BuildTree(8, 4)
	sub := tr.Subtree(tr.Root)
	if len(sub) != 8 {
		t.Fatalf("subtree size %d, want 8", len(sub))
	}
	pos := map[int]int{}
	for i, n := range sub {
		pos[n] = i
	}
	for n, p := range tr.Parent {
		if p != -1 && pos[n] > pos[p] {
			t.Fatalf("child %d after parent %d", n, p)
		}
	}
}

func TestTransferCycles(t *testing.T) {
	p := hw.Siracusa()
	if got := TransferCycles(p, 0); got != 0 {
		t.Fatalf("zero payload cost %g", got)
	}
	// 512 B at 1 B/cycle + 256 setup.
	if got := TransferCycles(p, 512); got != 768 {
		t.Fatalf("transfer = %g, want 768", got)
	}
}

func TestCriticalPathGrowsSlowlyWithHierarchy(t *testing.T) {
	p := hw.Siracusa()
	flat, _ := BuildTree(64, 64)
	hier, _ := BuildTree(64, 4)
	payload := int64(2048)
	flatCycles := CriticalPathCycles(flat, p, payload, payload)
	hierCycles := CriticalPathCycles(hier, p, payload, payload)
	// The flat all-to-one reduce serializes 63 receives at the root;
	// the hierarchical tree must be substantially faster.
	if hierCycles >= flatCycles/2 {
		t.Fatalf("hierarchical %g not clearly faster than flat %g", hierCycles, flatCycles)
	}
}

func TestCriticalPathSingleChipZero(t *testing.T) {
	p := hw.Siracusa()
	tr, _ := BuildTree(1, 4)
	if got := CriticalPathCycles(tr, p, 4096, 4096); got != 0 {
		t.Fatalf("single chip critical path = %g, want 0", got)
	}
}

// Property: trees for any (n, groupSize) are valid spanning trees with
// n-1 reduce hops and n-1 broadcast hops.
func TestPropertyTreeValid(t *testing.T) {
	f := func(nRaw, gRaw uint8) bool {
		n := 1 + int(nRaw)%100
		g := 2 + int(gRaw)%10
		tr, err := BuildTree(n, g)
		if err != nil {
			return false
		}
		if tr.Validate() != nil {
			return false
		}
		return len(tr.ReduceHops()) == n-1 && len(tr.BroadcastHops()) == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: depth is bounded by ceil(log_g(n)) for group size g.
func TestPropertyDepthLogarithmic(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := 1 + int(nRaw)%200
		tr, err := BuildTree(n, 4)
		if err != nil {
			return false
		}
		bound := 0
		for c := n; c > 1; c = (c + 3) / 4 {
			bound++
		}
		return tr.Depth() <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: no chip is its own ancestor.
func TestPropertyAcyclic(t *testing.T) {
	f := func(nRaw, gRaw uint8) bool {
		n := 2 + int(nRaw)%64
		g := 2 + int(gRaw)%8
		tr, err := BuildTree(n, g)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			steps := 0
			for p := tr.Parent[i]; p != -1; p = tr.Parent[p] {
				if p == i || steps > n {
					return false
				}
				steps++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Validate checks that the tree spans all chips exactly once and is
// acyclic with the declared root.
func (t *Tree) Validate() error {
	if t.N <= 0 {
		return fmt.Errorf("interconnect: empty tree")
	}
	if t.Parent[t.Root] != -1 {
		return fmt.Errorf("interconnect: root %d has parent %d", t.Root, t.Parent[t.Root])
	}
	seen := make([]bool, t.N)
	var walk func(int, int) error
	walk = func(node, depth int) error {
		if depth > t.N {
			return fmt.Errorf("interconnect: cycle detected at %d", node)
		}
		if seen[node] {
			return fmt.Errorf("interconnect: chip %d reached twice", node)
		}
		seen[node] = true
		for _, c := range t.Children[node] {
			if t.Parent[c] != node {
				return fmt.Errorf("interconnect: child %d of %d has parent %d", c, node, t.Parent[c])
			}
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.Root, 0); err != nil {
		return err
	}
	for i, s := range seen {
		if !s {
			return fmt.Errorf("interconnect: chip %d unreachable", i)
		}
	}
	return nil
}
