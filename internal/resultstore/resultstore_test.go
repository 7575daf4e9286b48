package resultstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/hw"
	"mcudist/internal/model"
)

func testPoint(chips int) (core.System, core.Workload) {
	return core.DefaultSystem(chips),
		core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
}

func mustRun(t *testing.T, sys core.System, wl core.Workload) *core.Report {
	t.Helper()
	rep, err := core.Run(sys, wl)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func logPath(dir string) string {
	return filepath.Join(dir, fmt.Sprintf("results-v%d.log", DigestVersion))
}

// A persisted report must round-trip exactly: every field the
// simulator computed — floats included — comes back bit-identical, so
// warm runs print byte-identical output.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys, wl := testPoint(4)
	rep := mustRun(t, sys, wl)
	if err := s.Append(sys, wl, rep); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(sys, wl)
	if !ok {
		t.Fatal("persisted entry missed")
	}
	if !reflect.DeepEqual(got, rep) {
		t.Errorf("round-trip diverged:\n got %+v\nwant %+v", got, rep)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if s.SizeBytes() <= 0 {
		t.Error("SizeBytes reported an empty log")
	}

	// A cold process: a fresh store on the same directory serves the
	// entry without any simulation.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got2, ok := s2.Load(sys, wl)
	if !ok {
		t.Fatal("reopened store missed the persisted entry")
	}
	if !reflect.DeepEqual(got2, rep) {
		t.Error("reopened store returned a different report")
	}
	if s2.Skipped() != 0 {
		t.Errorf("clean log skipped %d records", s2.Skipped())
	}
}

// Distinct configurations must get distinct digests (chips, plan,
// workload, and mode all participate), equal configurations equal
// ones, and the digest string must carry its version.
func TestDigest(t *testing.T) {
	sys, wl := testPoint(4)
	if d, d2 := Digest(sys, wl), Digest(sys, wl); d != d2 {
		t.Errorf("digest not deterministic: %s vs %s", d, d2)
	}
	if !strings.HasPrefix(Digest(sys, wl), fmt.Sprintf("v%d-", DigestVersion)) {
		t.Errorf("digest %q does not carry its version", Digest(sys, wl))
	}
	sys8 := sys
	sys8.Chips = 8
	if Digest(sys, wl) == Digest(sys8, wl) {
		t.Error("chip count did not reach the digest")
	}
	wlP := wl
	wlP.Mode = model.Prompt
	if Digest(sys, wl) == Digest(sys, wlP) {
		t.Error("mode did not reach the digest")
	}
	planned := sys
	planned.Options.SyncPlan = planned.Options.SyncPlan.With(0, hw.TopoRing)
	if Digest(sys, wl) == Digest(planned, wl) {
		t.Error("the collective plan (an unexported binding array) did not reach the digest")
	}
}

// A truncated trailing record — a writer killed mid-append — must be
// skipped on open: earlier entries stay served, the torn one misses
// and is re-simulated, and nothing is fatal.
func TestTruncatedTailSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sysA, wlA := testPoint(2)
	sysB, wlB := testPoint(4)
	if err := s.Append(sysA, wlA, mustRun(t, sysA, wlA)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(sysB, wlB, mustRun(t, sysB, wlB)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	raw, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath(dir), raw[:len(raw)-37], 0o666); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn log failed to open: %v", err)
	}
	if _, ok := s2.Load(sysA, wlA); !ok {
		t.Error("entry before the torn tail was lost")
	}
	if _, ok := s2.Load(sysB, wlB); ok {
		t.Error("torn entry was served")
	}
	if s2.Skipped() != 1 {
		t.Errorf("skipped %d records, want 1", s2.Skipped())
	}

	// The store stays appendable after the torn tail: the re-simulated
	// entry lands after the partial line and both reads still work on a
	// fresh open (the damaged line stays skipped, not resurrected).
	if err := s2.Append(sysB, wlB, mustRun(t, sysB, wlB)); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Load(sysB, wlB); !ok {
		t.Error("re-appended entry after torn tail missed")
	}
}

// A corrupt record in the middle of the log — a flipped byte caught by
// the CRC — is skipped without affecting its neighbors.
func TestCorruptEntrySkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sysA, wlA := testPoint(2)
	sysB, wlB := testPoint(4)
	if err := s.Append(sysA, wlA, mustRun(t, sysA, wlA)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(sysB, wlB, mustRun(t, sysB, wlB)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	raw, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside the first record's report payload without
	// breaking JSON syntax: corruption the CRC, not the parser, catches.
	idx := strings.Index(string(raw), `"Cycles":`)
	if idx < 0 {
		t.Fatal("no Cycles field in log")
	}
	for i := idx + len(`"Cycles":`); ; i++ {
		if raw[i] >= '1' && raw[i] <= '8' {
			raw[i]++
			break
		}
	}
	if err := os.WriteFile(logPath(dir), raw, 0o666); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Load(sysA, wlA); ok {
		t.Error("corrupt entry was served")
	}
	if _, ok := s2.Load(sysB, wlB); !ok {
		t.Error("entry after the corrupt record was lost")
	}
	if s2.Skipped() != 1 {
		t.Errorf("skipped %d records, want 1", s2.Skipped())
	}
}

// Records written under another digest version are invalidated
// wholesale: they are skipped on open and never served.
func TestDigestVersionMismatchInvalidates(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys, wl := testPoint(2)
	if err := s.Append(sys, wl, mustRun(t, sys, wl)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	raw, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(string(raw), fmt.Sprintf(`"v":%d`, DigestVersion), `"v":0`, 1)
	if doctored == string(raw) {
		t.Fatal("no version field found to doctor")
	}
	if err := os.WriteFile(logPath(dir), []byte(doctored), 0o666); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Load(sys, wl); ok {
		t.Error("entry from a foreign digest version was served")
	}
	if s2.Skipped() != 1 {
		t.Errorf("skipped %d records, want 1", s2.Skipped())
	}
}

// Reports on a measured wiring persist it as a view record, so the log
// is self-contained: reopening re-registers the wiring (and a record
// whose edges are not whole (from, to, class) triples, or whose view
// does not reproduce its recorded digest, is rejected).
func TestTableNetworkPersisted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	edges := map[hw.Edge]hw.LinkClass{}
	for _, e := range [][2]int{{0, 1}, {1, 0}} {
		edges[hw.Edge{From: e[0], To: e[1]}] = hw.MIPI()
	}
	net, err := hw.TableNetwork(edges, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, wl := testPoint(2)
	sys.HW.Network = net
	sys.HW.Topology = hw.TopoRing
	if err := s.Append(sys, wl, mustRun(t, sys, wl)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"kind":"view"`) ||
		!strings.Contains(string(raw), net.TableDigest) {
		t.Fatal("the wiring was not persisted next to the entry")
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Skipped() != 0 {
		t.Errorf("reopen skipped %d records", s2.Skipped())
	}
	if got, ok := s2.Load(sys, wl); !ok || got.Cycles <= 0 {
		t.Error("table-backed entry missed after reopen")
	}
	if !s2.views[net.TableDigest] {
		t.Error("the wiring was not re-registered after reopen")
	}

	// A view record with a forged digest, a ragged edge list or a class
	// index out of range is skipped; the report stays indexed.
	for _, d := range []struct{ name, old, new string }{
		{"forged digest", net.TableDigest[:8], "deadbeef"},
		{"ragged edges", `"edges":[0,1,0,1,0,0]`, `"edges":[0,1,0,1,0]`},
		{"class out of range", `"edges":[0,1,0,1,0,0]`, `"edges":[0,1,0,1,0,1]`},
	} {
		doctored := strings.Replace(string(raw), d.old, d.new, 1)
		if doctored == string(raw) {
			t.Fatalf("%s: nothing to doctor in %s", d.name, raw)
		}
		dir2 := t.TempDir()
		if err := os.WriteFile(logPath(dir2), []byte(doctored), 0o666); err != nil {
			t.Fatal(err)
		}
		s3, err := Open(dir2)
		if err != nil {
			t.Fatal(err)
		}
		if s3.Skipped() != 1 || s3.Len() != 1 || len(s3.views) != 0 {
			t.Errorf("%s: Skipped, Len, views = %d, %d, %d; want 1, 1, 0",
				d.name, s3.Skipped(), s3.Len(), len(s3.views))
		}
		s3.Close()
	}
}

// Appending the same configuration twice writes one record.
func TestAppendDeduplicates(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys, wl := testPoint(2)
	rep := mustRun(t, sys, wl)
	if err := s.Append(sys, wl, rep); err != nil {
		t.Fatal(err)
	}
	size := s.SizeBytes()
	if err := s.Append(sys, wl, rep); err != nil {
		t.Fatal(err)
	}
	if s.SizeBytes() != size || s.Len() != 1 {
		t.Errorf("duplicate append grew the log (%d -> %d bytes, %d entries)",
			size, s.SizeBytes(), s.Len())
	}
}

// Two stores on one directory — two processes, in miniature — append
// concurrently without corrupting the log: each serves every entry it
// wrote, since its index records where its own write landed even when
// the other store appended in between, and a fresh open afterwards
// indexes every entry and skips nothing.
func TestConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const perWriter = 500
	sys, wl := testPoint(2)
	rep := mustRun(t, sys, wl)
	var wg sync.WaitGroup
	for i, s := range []*Store{s1, s2} {
		wg.Add(1)
		go func(s *Store, off int) {
			defer wg.Done()
			wl := wl
			for n := range perWriter {
				wl.SeqLen = 2*n + 1 + off // disjoint configs per writer
				if err := s.Append(sys, wl, rep); err != nil {
					t.Error(err)
					return
				}
			}
			for n := range perWriter {
				wl.SeqLen = 2*n + 1 + off
				if _, ok := s.Load(sys, wl); !ok {
					t.Errorf("store %d missed its own entry at SeqLen %d", off+1, wl.SeqLen)
					return
				}
			}
		}(s, i)
	}
	wg.Wait()

	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 2*perWriter {
		t.Errorf("concurrent appends left %d entries, want %d", s3.Len(), 2*perWriter)
	}
	if s3.Skipped() != 0 {
		t.Errorf("concurrent appends corrupted %d records", s3.Skipped())
	}
}

// The log is plain JSON lines: every record parses standalone (the
// property the corruption handling and external tooling rely on).
func TestLogIsJSONLines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys, wl := testPoint(2)
	if err := s.Append(sys, wl, mustRun(t, sys, wl)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Errorf("line %d is not standalone JSON: %v", i, err)
		}
	}
}

// CompactTo must keep exactly the newest valid record per digest and
// drop duplicate and damaged lines: a store written by two concurrent
// handles (each blind to the other's appends) plus a torn final write
// compacts to one clean record per configuration, with the newest
// duplicate winning.
func TestCompactTo(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir) // scanned before s1 writes: will duplicate
	if err != nil {
		t.Fatal(err)
	}
	sysA, wlA := testPoint(2)
	sysB, wlB := testPoint(4)
	repA := mustRun(t, sysA, wlA)
	repB := mustRun(t, sysB, wlB)
	if err := s1.Append(sysA, wlA, repA); err != nil {
		t.Fatal(err)
	}
	// s2 re-appends the same digest with a doctored payload, so the
	// log holds two different records for it; the newest must win.
	newer := *repA
	newer.Cycles += 1000
	if err := s2.Append(sysA, wlA, &newer); err != nil {
		t.Fatal(err)
	}
	if err := s1.Append(sysB, wlB, repB); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	s2.Close()

	// A writer dies mid-record: the log gains a torn tail.
	f, err := os.OpenFile(logPath(dir), os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"report","v":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	src, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if src.Skipped() != 1 {
		t.Fatalf("source skipped %d records, want 1 (the torn tail)", src.Skipped())
	}

	if _, err := src.CompactTo(dir); err == nil {
		t.Fatal("compacting a store onto its own directory was accepted")
	}

	dstDir := t.TempDir()
	dst, err := src.CompactTo(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 2 {
		t.Errorf("compacted store holds %d entries, want 2", dst.Len())
	}
	if dst.SizeBytes() >= src.SizeBytes() {
		t.Errorf("compacted log (%d bytes) not smaller than source (%d bytes)",
			dst.SizeBytes(), src.SizeBytes())
	}
	gotA, ok := dst.Load(sysA, wlA)
	if !ok {
		t.Fatal("compacted store missed the duplicated entry")
	}
	if gotA.Cycles != newer.Cycles {
		t.Errorf("compacted store kept cycles %g, want the newest duplicate's %g",
			gotA.Cycles, newer.Cycles)
	}
	if gotB, ok := dst.Load(sysB, wlB); !ok || !reflect.DeepEqual(gotB, repB) {
		t.Error("compacted store lost or altered the second entry")
	}
	dst.Close()

	// The compacted log reopens clean: no skipped records, same index.
	re, err := Open(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Skipped() != 0 {
		t.Errorf("compacted log skipped %d records on reopen, want 0", re.Skipped())
	}
	if re.Len() != 2 {
		t.Errorf("reopened compacted store holds %d entries, want 2", re.Len())
	}
}

// The scan trusts a report's CRC for its well-formedness, so a forged
// line whose body is not JSON but whose CRC matches is indexed. Load
// answers it with a miss, and CompactTo leaves it out of the copy.
func TestCompactDropsForgedBody(t *testing.T) {
	dir := t.TempDir()
	sys, wl := testPoint(2)
	body := []byte(`{"Cycles":}`)
	line := fmt.Sprintf("%s%s\",\"crc\":%d,\"report\":%s}\n",
		reportPrefix, Digest(sys, wl), crc32.ChecksumIEEE(body), body)
	if err := os.WriteFile(logPath(dir), []byte(line), 0o666); err != nil {
		t.Fatal(err)
	}
	src, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.Len() != 1 || src.Skipped() != 0 {
		t.Errorf("Len, Skipped = %d, %d; want 1, 0", src.Len(), src.Skipped())
	}
	if _, ok := src.Load(sys, wl); ok {
		t.Error("Load returned a report for a body that is not JSON")
	}
	dst, err := src.CompactTo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if dst.Len() != 0 || dst.SizeBytes() != 0 {
		t.Errorf("compacted store holds %d entries in %d bytes, want none",
			dst.Len(), dst.SizeBytes())
	}
}

// goldenTable is the measured wiring v7.log persists, by its
// hw.TableNetwork digest: chips 0 and 1 joined both ways by a MIPI link
// three times slower. v6.log and older persisted the same wiring as a
// table record under another digest.
const goldenTable = "8ec28a55c6cf25ae9eda0e2af28b637d1433ce056d94f859eee6010412f81503"

// goldenViewUniform is the degraded board v5.log, v6.log and v7.log
// persist, by its hw.ViewNetwork digest.
const goldenViewUniform = "01cfed3a0e437e3e42b93dd6fdebf60812f1d4737ddb1e5e8870dfdf680fa449"

// goldenViews returns the two views of v7.log: a 4-chip uniform board
// with chip 1 dropped and the new 0<->1 edge ten times slower, and the
// goldenTable wiring, a view over the zero network.
func goldenViews() (uniform, table hw.View) {
	slow := hw.MIPI().Slower(10)
	uniform = hw.View{
		Base:      hw.UniformNetwork(hw.MIPI()),
		Survivors: []int{0, 2, 3},
		Overrides: []hw.EdgeClass{{Edge: hw.Edge{From: 0, To: 1}, Class: slow}, {Edge: hw.Edge{From: 1, To: 0}, Class: slow}},
	}
	wire := hw.MIPI().Slower(3)
	table = hw.View{
		Survivors: []int{0, 1},
		Overrides: []hw.EdgeClass{{Edge: hw.Edge{From: 0, To: 1}, Class: wire}, {Edge: hw.Edge{From: 1, To: 0}, Class: wire}},
	}
	return uniform, table
}

// goldenPoint is one configuration a golden log holds, in log order,
// and whether its record is intact.
type goldenPoint struct {
	sys    core.System
	wl     core.Workload
	stored bool
}

// goldenPoints lists the reports v7.log holds, in order: 2-chip
// autoregressive, 2-chip autoregressive routed over goldenTable, 4-chip
// prompt with one Cycles digit flipped (CRC damage), 4-chip
// autoregressive, 3-chip autoregressive on goldenViewUniform, 2-chip
// autoregressive on goldenTable with chip 1 at half speed (a
// straggler's view of a measured wiring is the wiring's own), and last
// 8-chip autoregressive torn halfway through its line. The older logs
// hold these points in the shapes of their versions (see
// TestGoldenV6Log).
func goldenPoints() []goldenPoint {
	ar := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	pr := core.Workload{Model: model.TinyLlama42M(), Mode: model.Prompt}
	tableSys := core.DefaultSystem(2)
	tableSys.HW.Network = hw.Network{Profile: hw.NetView, TableDigest: goldenTable}
	tableSys.HW.Topology = hw.TopoRing
	viewSys := core.DefaultSystem(3)
	viewSys.HW.Network = hw.Network{Profile: hw.NetView, TableDigest: goldenViewUniform}
	straggleSys := tableSys
	straggleSys.Options.StragglerChip, straggleSys.Options.StragglerFactor = 1, 0.5
	return []goldenPoint{
		{core.DefaultSystem(2), ar, true},
		{tableSys, ar, true},
		{core.DefaultSystem(4), pr, false},
		{core.DefaultSystem(4), ar, true},
		{viewSys, ar, true},
		{straggleSys, ar, true},
		{core.DefaultSystem(8), ar, false},
	}
}

// openGolden opens a store on a directory holding the named golden log
// under the file name name.
func openGolden(t *testing.T, golden, name string) (*Store, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), raw, 0o666); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("opening a store on %s as %s: %v", golden, name, err)
	}
	t.Cleanup(func() { s.Close() })
	return s, raw
}

// testdata/v7.log was written by Append under DigestVersion 7 and is
// never regenerated: it pins that logs already on disk still read the
// same. It holds goldenPoints' reports and each golden view ahead of
// the first report on it: the goldenTable wiring is a view record over
// the zero network.
func TestGoldenV7Log(t *testing.T) {
	s, raw := openGolden(t, "v7.log", filepath.Base(logPath("")))
	if s.Len() != 5 || s.Skipped() != 2 {
		t.Errorf("Len, Skipped = %d, %d; want 5, 2", s.Len(), s.Skipped())
	}
	if !bytes.Contains(raw, []byte(`{"kind":"view","v":7,"view":"`+goldenTable+`","base":{"Profile":"uniform","Local":{"BandwidthBytesPerSec":0,`)) {
		t.Error("the measured wiring is not a view record over the zero network")
	}
	uniform, table := goldenViews()
	for _, v := range []struct {
		digest string
		want   hw.View
	}{{goldenViewUniform, uniform}, {goldenTable, table}} {
		if !s.views[v.digest] {
			t.Errorf("view %s was not re-registered", v.digest)
		}
		if got, ok := hw.ViewOf(v.digest); !ok || !reflect.DeepEqual(got, v.want) {
			t.Fatalf("view re-registered as %+v, %v; want %+v", got, ok, v.want)
		}
	}

	for _, p := range goldenPoints() {
		got, ok := s.Load(p.sys, p.wl)
		if ok != p.stored {
			t.Errorf("%d chips %v on %v: Load ok = %v, want %v", p.sys.Chips, p.wl.Mode, p.sys.HW.Network, ok, p.stored)
			continue
		}
		if ok && !reflect.DeepEqual(got, mustRun(t, p.sys, p.wl)) {
			t.Errorf("%d chips %v on %v: stored report differs from a fresh run", p.sys.Chips, p.wl.Mode, p.sys.HW.Network)
		}
	}

	// Every intact report line Append wrote passes the envelope decoder,
	// the only path that indexes reports.
	var fast int
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if _, _, ok := decodeReportLine(line); ok {
			fast++
		}
	}
	if fast != 5 {
		t.Errorf("envelope decoder read %d report lines, want 5", fast)
	}
}

// testdata/v6.log, v5.log, v4.log and v3.log were written by Append
// under DigestVersion 6, 5, 4 and 3 and are never regenerated. v6.log
// holds the records v7.log does in the v6 shape (the wiring as a table
// record, and the straggler's point on a view over that table); v5.log
// the v6 records in the v5 shape (report bodies with the per-class
// split, Seconds and EDP); v4.log the same but the view-routed reports
// and the views; v3.log the v4 records in the v3 shape (report bodies
// with per-chip counters and the configuration echo, table edges as
// objects). A store reads older data as misses, never as errors: under
// its own file name an old log is not read at all, and copied into the
// current log every line is skipped.
func TestGoldenV6Log(t *testing.T) { testOldGoldenLog(t, 6) }

func TestGoldenV5Log(t *testing.T) { testOldGoldenLog(t, 5) }

func TestGoldenV4Log(t *testing.T) { testOldGoldenLog(t, 4) }

func TestGoldenV3Log(t *testing.T) { testOldGoldenLog(t, 3) }

func testOldGoldenLog(t *testing.T, version int) {
	golden := fmt.Sprintf("v%d.log", version)
	s, raw := openGolden(t, golden, fmt.Sprintf("results-v%d.log", version))
	if s.Len() != 0 || s.Skipped() != 0 {
		t.Errorf("%s under its own name: Len, Skipped = %d, %d; want 0, 0", golden, s.Len(), s.Skipped())
	}
	for _, p := range goldenPoints() {
		if _, ok := s.Load(p.sys, p.wl); ok {
			t.Errorf("%d chips %v: served from %s", p.sys.Chips, p.wl.Mode, golden)
		}
	}

	lines := len(bytes.SplitAfter(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")))
	s, _ = openGolden(t, golden, filepath.Base(logPath("")))
	if s.Len() != 0 || s.Skipped() != lines {
		t.Errorf("%s lines in the v%d log: Len, Skipped = %d, %d; want 0, %d", golden, DigestVersion, s.Len(), s.Skipped(), lines)
	}
	if len(s.views) != 0 {
		t.Errorf("%s registered %d view records", golden, len(s.views))
	}
	for _, p := range goldenPoints() {
		if _, ok := s.Load(p.sys, p.wl); ok {
			t.Errorf("%d chips %v: served from %s copied into the v%d log", p.sys.Chips, p.wl.Mode, golden, DigestVersion)
		}
	}
}

// FuzzDecodeReportLine checks the envelope decoder against the full
// JSON decode it short-cuts: it never panics, and any line it accepts
// json.Unmarshal reads as the same intact report record of this
// version. The seed corpus in testdata/fuzz holds lines Append wrote
// under v3 and their v4, v5, v6 and v7 twins (named -v4 to -v7): a
// plain report, a report whose CRC is zero (key omitted), a table
// record (from v7 on, a measured wiring's view record), a CRC-damaged
// report, a truncated one, one doctored to "v":0, and a record whose
// digest needs JSON escapes. A small record is added so mutations
// reach the accept path quickly, and a digest holding invalid UTF-8
// and a multi-byte rune. On every input, digestEnd, the byte loop that
// ends a digest, must stop where bytes.IndexFunc with the same test on
// runes stops.
func FuzzDecodeReportLine(f *testing.F) {
	small := json.RawMessage(`{"a":[1,"}"]}`)
	line, err := json.Marshal(record{Kind: "report", V: DigestVersion, Digest: "d",
		CRC: crc32.ChecksumIEEE(small), Report: small})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(line, '\n'))
	f.Add(append(append([]byte(nil), reportPrefix...), "a\xffb\xe2\x82\xac\"}\n"...))
	f.Fuzz(func(t *testing.T, line []byte) {
		// The byte loop that ends a digest stops where a rune test does.
		want := bytes.IndexFunc(line, func(r rune) bool { return r < 0x20 || r > 0x7e || r == '\\' || r == '"' })
		if got := digestEnd(line); got != want {
			t.Fatalf("digestEnd(%q) = %d, the rune test stops at %d", line, got, want)
		}
		digest, body, ok := decodeReportLine(line)
		if !ok {
			return
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("accepted a line json.Unmarshal rejects: %v", err)
		}
		if rec.Kind != "report" || rec.V != DigestVersion || rec.Digest != digest ||
			!bytes.Equal(rec.Report, body) {
			t.Fatalf("accepted digest %q (%d report bytes) but json.Unmarshal reads kind %q v%d digest %q (%d report bytes, equal %v)",
				digest, len(body), rec.Kind, rec.V, rec.Digest, len(rec.Report), bytes.Equal(rec.Report, body))
		}
		if crc32.ChecksumIEEE(body) != rec.CRC {
			t.Fatalf("accepted a report whose bytes do not match its CRC %d", rec.CRC)
		}
	})
}

// FuzzDecodeViewLine checks the view record's decoder against the
// registry it feeds: it never panics, a line the open scan accepts (a
// decoded view whose content digest is the recorded one) registers
// through hw.ViewNetwork under that digest, and re-encoding the view
// decodes to the same digest and view. The seed corpus in testdata/fuzz
// holds views over a uniform, a clustered and a table base, a survivor
// list out of order and a class index out of range, each as written
// under v5 and as its v6 and v7 twins (named -v6 and -v7; v7 has no
// table base), and a v4 table line. The v7 seeds add measured
// wirings, views over the zero network: the 2-chip goldenTable, a
// 64-chip two-class wiring, and that wiring with a class index out of
// range, a ragged edge list and a negative chip id.
func FuzzDecodeViewLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		digest, v, ok := decodeViewLine(line)
		if !ok {
			return
		}
		// Checked without registering, so rejected mutations do not
		// pile up in the process-wide view registry.
		if d, err := hw.DigestView(v); err != nil || d != digest {
			return
		}
		net, err := hw.ViewNetwork(v)
		if err != nil || net.Profile != hw.NetView || net.TableDigest != digest {
			t.Fatalf("accepted view %s, but it registers as %v (%v)", digest, net, err)
		}
		again, err := encodeViewLine(digest, v)
		if err != nil {
			t.Fatalf("re-encoding an accepted view: %v", err)
		}
		d2, v2, ok := decodeViewLine(again)
		if !ok || d2 != digest || !reflect.DeepEqual(v2, v) {
			t.Fatalf("re-encoded view decodes as %q (ok %v) %+v, want %q %+v", d2, ok, v2, digest, v)
		}
	})
}

// Size guards: a report body holds no per-chip counters, no
// configuration echo, no per-class split and no Seconds or EDP, a
// view's edges are a class list plus integer triples, and a degraded
// board is a view of its base. Any of them creeping back would blow
// these bounds (a 64-chip report line was 15.6-17.8 KB, then about
// 900 B with the per-class split; a 64-chip table record 414 KB, and a
// 64-chip board with a dropped chip and a slowed edge a ~31 KB table
// record). A measured fully-connected 64-chip wiring is a view record
// of 4,032 triples.
func TestRecordSizeBounds(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wl := core.Workload{Model: model.TinyLlamaScaled64(), Mode: model.Prompt}
	sys := core.DefaultSystem(64)
	if err := s.Append(sys, wl, mustRun(t, sys, wl)); err != nil {
		t.Fatal(err)
	}
	edges, err := hw.NetworkEdges(hw.UniformNetwork(hw.MIPI()), 64)
	if err != nil {
		t.Fatal(err)
	}
	net, err := hw.TableNetwork(edges, 64)
	if err != nil {
		t.Fatal(err)
	}
	sys.HW.Network, sys.HW.Topology = net, hw.TopoFullyConnected
	rep := mustRun(t, sys, wl)
	if err := s.Append(sys, wl, rep); err != nil {
		t.Fatal(err)
	}
	// The 64-chip board with chip 3 dropped and the new 0<->1 edge ten
	// times slower; the record bound concerns the view, so the report
	// is the one above.
	drop := hw.View{Base: hw.UniformNetwork(hw.MIPI())}
	for c := range 64 {
		if c != 3 {
			drop.Survivors = append(drop.Survivors, c)
		}
	}
	for _, e := range []hw.Edge{{From: 0, To: 1}, {From: 1, To: 0}} {
		drop.Overrides = append(drop.Overrides, hw.EdgeClass{Edge: e, Class: hw.MIPI().Slower(10)})
	}
	if sys.HW.Network, err = hw.ViewNetwork(drop); err != nil {
		t.Fatal(err)
	}
	sys.Chips = 63
	if err := s.Append(sys, wl, rep); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var reports, views int
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		switch {
		case len(line) == 0:
		case bytes.HasPrefix(line, []byte(`{"kind":"view"`)):
			views++
			// The measured wiring's record comes first.
			if views == 1 && len(line) > 64<<10 {
				t.Errorf("64-chip fully-connected wiring's view line is %d bytes, want at most %d", len(line), 64<<10)
			}
			if views == 2 && len(line) > 1<<10 {
				t.Errorf("64-chip drop+slow view line is %d bytes, want at most %d", len(line), 1<<10)
			}
		default:
			reports++
			if len(line) > 512 {
				t.Errorf("64-chip prompt report line is %d bytes, want at most 512", len(line))
			}
		}
	}
	if reports != 3 || views != 2 {
		t.Errorf("log holds %d report and %d view lines, want 3 and 2", reports, views)
	}
}

// The digest walks every leaf of System and Workload (appendLeaves) and
// hashes the %#v rendering of their zero values. A pointer, func, chan
// or unsafe pointer anywhere in either type holds an address, not
// content, and a map or interface holds content the type does not pin
// down: the walk has no encoding for any of them. A GoString method
// replaces the field-by-field rendering of the shape. Any of them lets
// two processes digest one configuration differently.
func TestDigestKeyIsPlainData(t *testing.T) {
	goStringer := reflect.TypeFor[fmt.GoStringer]()
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		if typ.Implements(goStringer) {
			t.Errorf("%s (%v) has a GoString method", path, typ)
		}
		switch typ.Kind() {
		case reflect.Pointer, reflect.Map, reflect.Func, reflect.Chan,
			reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s is a %v (%v)", path, typ.Kind(), typ)
		case reflect.Array, reflect.Slice:
			walk(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := range typ.NumField() {
				fld := typ.Field(i)
				walk(fld.Type, path+"."+fld.Name)
			}
		}
	}
	walk(reflect.TypeFor[core.System](), "System")
	walk(reflect.TypeFor[core.Workload](), "Workload")
}
