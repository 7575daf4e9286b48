package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainArg, as the first argument of the test binary, makes it run
// the command on the remaining arguments instead of the tests.
const runMainArg = "-run-sweep-main"

// TestMain runs the command itself when runSweep re-executes the test
// binary, so a test can observe its exit status and stderr.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSweep runs the command with args in a child process, with the
// persistent store off, and returns its exit code and stderr.
func runSweep(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{runMainArg}, args...)...)
	cmd.Env = append(os.Environ(), "MCUDIST_CACHE=")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// A flag that only another mode reads is rejected with exit 1 and a
// message naming it, before anything is simulated, instead of being
// dropped silently. So is a -groups beyond -requests, before any group
// is allocated: a group past the request count never serves, and a
// huge -groups used to exhaust memory.
func TestRejectsFlagsOutsideTheirMode(t *testing.T) {
	const fleetOnly = "applies to -fleet only"
	const topkOnly = "-topk applies to -autotune-session, -autotune-tiling and -replan only"
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"rates", []string{"-chips", "8", "-rates", "1"}, "-rates " + fleetOnly},
		{"requests", []string{"-chips", "8", "-requests", "10"}, "-requests " + fleetOnly},
		{"seed", []string{"-chips", "8", "-seed", "3"}, "-seed " + fleetOnly},
		{"groups", []string{"-chips", "8", "-groups", "4"}, "-groups " + fleetOnly},
		{"max-batch", []string{"-chips", "8", "-max-batch", "2"}, "-max-batch " + fleetOnly},
		{"fleet-autotune", []string{"-chips", "8", "-fleet-autotune"}, "-fleet-autotune " + fleetOnly},
		{"fleet-serial", []string{"-chips", "8", "-fleet-serial"}, "-fleet-serial " + fleetOnly},
		{"fault-at", []string{"-chips", "8", "-fault", "slow:0-1x10", "-fault-at", "3"}, "-fault-at " + fleetOnly},
		{"fault-group", []string{"-chips", "8", "-fault", "drop:3", "-fault-group", "1"}, "-fault-group " + fleetOnly},
		{"fault-replan", []string{"-chips", "8", "-fault", "slow:0-1x10", "-fault-replan"}, "-fault-replan " + fleetOnly},
		{"topk-plain", []string{"-chips", "8", "-topk", "2"}, topkOnly},
		{"topk-autotune", []string{"-model", "scaled", "-mode", "prompt", "-chips", "16", "-autotune", "-topk", "2"}, topkOnly},
		{"topk-fleet", []string{"-fleet", "-chips", "8", "-topk", "2"}, topkOnly},
		{"groups-beyond-requests", []string{"-fleet", "-chips", "8", "-groups", "100000000", "-rates", "1", "-requests", "10"},
			"-groups 100000000 exceeds -requests 10"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := runSweep(t, tc.args...)
			if code != 1 || !strings.Contains(stderr, tc.want) {
				t.Errorf("sweep %s: exit %d, stderr %q; want exit 1 and %q",
					strings.Join(tc.args, " "), code, stderr, tc.want)
			}
		})
	}
}

// The view profile has no -network spelling. Every spelling of it,
// the measured-wiring ones included, exits 1 naming both flags that
// build a view: -netlist for a measured wiring and -fault for a
// degraded board.
func TestViewProfileNamesTheFlagsThatBuildIt(t *testing.T) {
	for _, name := range []string{"view", "table", "per-edge", "netlist"} {
		code, stderr := runSweep(t, "-chips", "8", "-network", name)
		if code != 1 || !strings.Contains(stderr, "-netlist") || !strings.Contains(stderr, "-fault") {
			t.Errorf("sweep -network %s: exit %d, stderr %q; want exit 1 naming -netlist and -fault", name, code, stderr)
		}
	}
}
