package resultstore

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

// coldBoard is the degraded board TestViewColdProcess persists: a 4-chip
// netlist (a MIPI chain 0-1-2-3 plus a slow 0<->3 repair wire) with
// chip 2 dropped and the repair wire, now 0<->2, three times slower.
// The netlist is a view over the zero network, so the degraded board
// is one too: its overrides are the edges that survive, in view ids.
func coldBoard() hw.View {
	mipi, repair := hw.MIPI(), hw.LinkClass{BandwidthBytesPerSec: 4.2e7, SetupCycles: 96, EnergyPJPerByte: 37}.Slower(3)
	v := hw.View{Survivors: []int{0, 1, 3}}
	for _, o := range []struct {
		from, to int
		c        hw.LinkClass
	}{{0, 1, mipi}, {0, 2, repair}, {1, 0, mipi}, {2, 0, repair}} {
		v.Overrides = append(v.Overrides, hw.EdgeClass{Edge: hw.Edge{From: o.from, To: o.to}, Class: o.c})
	}
	return v
}

// coldPoint is the configuration TestViewColdProcess stores on the view
// registered under digest: the pipeline, which routes 1->2 over the
// slowed repair wire through chip 0.
func coldPoint(digest string) (core.System, core.Workload) {
	sys := core.DefaultSystem(3)
	sys.HW.Network = hw.Network{Profile: hw.NetView, TableDigest: digest}
	sys.Strategy = partition.Pipeline
	return sys, core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
}

// A report on a degraded netlist board round-trips through a cold
// process: this test writes the store, then runs its own binary again
// (the "cold-read" arguments) to read it, in a process whose registry
// does not hold the view until the open scan registers it. The child
// also opens a copy whose view record is damaged — the view is
// skipped, the report stays indexed, and nothing is fatal — and
// compacts the intact store, keeping the view.
func TestViewColdProcess(t *testing.T) {
	if args := flag.Args(); len(args) == 4 && args[0] == "cold-read" {
		coldRead(t, args[1], args[2], args[3])
		return
	}
	net, err := hw.ViewNetwork(coldBoard())
	if err != nil {
		t.Fatal(err)
	}
	dir, damaged := t.TempDir(), t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys, wl := coldPoint(net.TableDigest)
	if err := s.Append(sys, wl, mustRun(t, sys, wl)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	raw, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) != 3 || !bytes.HasPrefix(lines[0], []byte(`{"kind":"view"`)) {
		t.Fatalf("log is not a view and a report line:\n%s", raw)
	}
	lines[0] = bytes.Replace(lines[0], []byte(`"edges":[0,1,0`), []byte(`"edges":[0,1,9`), 1)
	if err := os.WriteFile(logPath(damaged), bytes.Join(lines, nil), 0o666); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestViewColdProcess$", "cold-read", dir, damaged, net.TableDigest)
	if out, err := cmd.CombinedOutput(); err != nil || !strings.Contains(string(out), "PASS") {
		t.Fatalf("cold read: %v\n%s", err, out)
	}
}

// coldRead is TestViewColdProcess' second process.
func coldRead(t *testing.T, dir, damaged, digest string) {
	want := coldBoard()
	if _, ok := hw.ViewOf(digest); ok {
		t.Fatal("the view is registered before any store opened")
	}
	sys, wl := coldPoint(digest)

	bad, err := Open(damaged)
	if err != nil {
		t.Fatalf("a damaged view record is fatal: %v", err)
	}
	if bad.Skipped() != 1 || bad.Len() != 1 || len(bad.views) != 0 {
		t.Errorf("damaged view: Skipped, Len, views = %d, %d, %d; want 1, 1, 0",
			bad.Skipped(), bad.Len(), len(bad.views))
	}
	if _, ok := hw.ViewOf(digest); ok {
		t.Error("a damaged view record was registered")
	}
	bad.Close()

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Skipped() != 0 || s.Len() != 1 || !s.views[digest] {
		t.Errorf("Skipped, Len, view kept = %d, %d, %v; want 0, 1, true", s.Skipped(), s.Len(), s.views[digest])
	}
	if got, ok := hw.ViewOf(digest); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("view re-registered as %+v, %v; want %+v", got, ok, want)
	}
	got, ok := s.Load(sys, wl)
	if !ok {
		t.Fatal("the report on the view missed")
	}
	if fresh := mustRun(t, sys, wl); !reflect.DeepEqual(got, fresh) {
		t.Errorf("stored report %+v differs from a fresh run %+v", got, fresh)
	}

	dst, err := s.CompactTo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(dst.path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte(`{"kind":"view"`)); n != 1 || dst.Len() != 1 || len(dst.views) != 1 {
		t.Errorf("compacted store holds %d view lines, %d reports and %d views; want 1, 1, 1", n, dst.Len(), len(dst.views))
	}
	dst.Close()
	re, err := Open(dst.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Skipped() != 0 || !re.views[digest] {
		t.Errorf("reopened compacted store skipped %d records, view kept %v", re.Skipped(), re.views[digest])
	}
	if got, ok := re.Load(sys, wl); !ok || !reflect.DeepEqual(got, mustRun(t, sys, wl)) {
		t.Error("compacted store lost or altered the report on the view")
	}
}
