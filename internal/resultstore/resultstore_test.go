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

// Reports on table-backed networks persist their per-edge wiring, so
// the log is self-contained: reopening re-registers the table (and a
// table record whose wiring does not reproduce its recorded digest is
// rejected).
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
	net, err := hw.TableNetwork(edges)
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
	if !strings.Contains(string(raw), `"kind":"table"`) ||
		!strings.Contains(string(raw), net.TableDigest) {
		t.Fatal("table wiring was not persisted next to the entry")
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
	if _, ok := hw.TableEdges(net.TableDigest); !ok {
		t.Error("table not registered after reopen")
	}

	// A table record with a forged digest must be skipped.
	doctored := strings.Replace(string(raw), net.TableDigest[:8], "deadbeef", 1)
	dir2 := t.TempDir()
	if err := os.MkdirAll(dir2, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath(dir2), []byte(doctored), 0o666); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Skipped() == 0 {
		t.Error("forged table digest was accepted")
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
// concurrently without corrupting the log: a fresh open afterwards
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
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	var wg sync.WaitGroup
	for i, s := range []*Store{s1, s2} {
		wg.Add(1)
		go func(s *Store, off int) {
			defer wg.Done()
			for n := 1; n <= 4; n++ {
				sys := core.DefaultSystem(n)
				sys.Options.CommTileBytes = 4096 + off // disjoint configs per writer
				rep, err := core.Run(sys, wl)
				if err != nil {
					t.Error(err)
					return
				}
				if err := s.Append(sys, wl, rep); err != nil {
					t.Error(err)
				}
			}
		}(s, i)
	}
	wg.Wait()

	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 8 {
		t.Errorf("concurrent appends left %d entries, want 8", s3.Len())
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

// testdata/v3.log was written by Append under DigestVersion 3 and is
// never regenerated: it pins that logs already on disk still read the
// same. In order it holds reports for 2-chip autoregressive, a table
// wiring plus a report routed over it, 4-chip prompt with one Cycles
// digit flipped (CRC damage), 4-chip autoregressive, and 8-chip
// autoregressive torn halfway through its line.
func TestGoldenV3Log(t *testing.T) {
	const table = "afe38c5f3eef37fb7b5aac51d8af0d6b5553fa78823038107f22b7fef2b076df"
	raw, err := os.ReadFile(filepath.Join("testdata", "v3.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(logPath(dir), raw, 0o666); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 3 || s.Skipped() != 2 {
		t.Errorf("Len, Skipped = %d, %d; want 3, 2", s.Len(), s.Skipped())
	}
	slow := hw.MIPI().Slower(3)
	wantEdges := map[hw.Edge]hw.LinkClass{{From: 0, To: 1}: slow, {From: 1, To: 0}: slow}
	if !s.tables[table] {
		t.Error("the table record was not re-registered")
	}
	if edges, ok := hw.TableEdges(table); !ok || !reflect.DeepEqual(edges, wantEdges) {
		t.Fatalf("table re-registered as %v, %v; want %v", edges, ok, wantEdges)
	}

	ar := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	pr := core.Workload{Model: model.TinyLlama42M(), Mode: model.Prompt}
	tableSys := core.DefaultSystem(2)
	tableSys.HW.Network = hw.Network{Profile: hw.NetTable, TableDigest: table}
	tableSys.HW.Topology = hw.TopoRing
	for _, p := range []struct {
		sys    core.System
		wl     core.Workload
		stored bool
	}{
		{core.DefaultSystem(2), ar, true},
		{tableSys, ar, true},
		{core.DefaultSystem(4), pr, false},
		{core.DefaultSystem(4), ar, true},
		{core.DefaultSystem(8), ar, false},
	} {
		got, ok := s.Load(p.sys, p.wl)
		if ok != p.stored {
			t.Errorf("%d chips %v: Load ok = %v, want %v", p.sys.Chips, p.wl.Mode, ok, p.stored)
			continue
		}
		if ok && !reflect.DeepEqual(got, mustRun(t, p.sys, p.wl)) {
			t.Errorf("%d chips %v: stored report differs from a fresh run", p.sys.Chips, p.wl.Mode)
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
	if fast != 3 {
		t.Errorf("envelope decoder read %d report lines, want 3", fast)
	}
}

// FuzzDecodeReportLine checks the envelope decoder against the full
// JSON decode it short-cuts: it never panics, and any line it accepts
// json.Unmarshal reads as the same intact report record of this
// version. The seed corpus in testdata/fuzz holds lines Append wrote: a
// plain report, a report whose CRC is zero (key omitted), a table
// record, a CRC-damaged report, a truncated one, one doctored to "v":0,
// and a record whose digest needs JSON escapes. A small record is added
// so mutations reach the accept path quickly.
func FuzzDecodeReportLine(f *testing.F) {
	small := json.RawMessage(`{"a":[1,"}"]}`)
	line, err := json.Marshal(record{Kind: "report", V: DigestVersion, Digest: "d",
		CRC: crc32.ChecksumIEEE(small), Report: small})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(line, '\n'))
	f.Fuzz(func(t *testing.T, line []byte) {
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

// The digest renders System and Workload with %#v. A pointer, func,
// chan or unsafe pointer anywhere in either type renders as an address,
// a map or interface holds content the type does not pin down, and a
// GoString method replaces the field-by-field rendering: any of them
// lets two processes digest one configuration differently.
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
