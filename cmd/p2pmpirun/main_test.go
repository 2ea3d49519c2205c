package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// p2pmpirun runs the command in-process and returns its exit code,
// stdout and stderr.
func p2pmpirun(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestUsageErrors: a command line the front end cannot run exits 2
// with a message, before anything boots.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-sim", "-n", "4"}, "usage: p2pmpirun"},
		{[]string{"-grid", "synth:S=3,H=8", "hostname"}, "-grid selects a simulated testbed and requires -sim"},
		{[]string{"-mtbf", "1m", "hostname"}, "-mtbf (seeded churn injection) requires -sim"},
		{[]string{"-sim", "-a", "nope", "hostname"}, "unknown allocation strategy"},
	} {
		code, stdout, stderr := p2pmpirun(t, c.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and %q", c.args, code, stdout, stderr, c.want)
		}
	}
}

// TestSimulatedRuns drives the -sim front end: one job prints its
// placement and one line per rank, -jobs a summary per copy, and under
// churn the exit status follows the replication degree — two replicas
// deliver every rank through the hosts that die, one does not.
func TestSimulatedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots worlds")
	}
	churn := []string{"-sim", "-grid", "synth:S=4,H=24", "-n", "4", "-mtbf", "240s", "-seed", "7"}
	for _, c := range []struct {
		args     []string
		code     int
		want     string // in stdout
		wantLogs string // in stderr
	}{
		{[]string{"-sim", "-grid", "synth:S=3,H=8", "-n", "4", "hostname"}, 0, "(4 processes)\n  site s1", "booting the simulated synth:S=3,H=8"},
		{[]string{"-sim", "-grid", "synth:S=3,H=8", "-n", "4", "-jobs", "3", "hostname"}, 0, "3/3 jobs completed\n", "(24 peers)"},
		{slices.Concat(churn, []string{"-r", "2", "spin", "60"}), 0, "[FAIL: host", "churn injected"},
		{slices.Concat(churn, []string{"-r", "1", "spin", "60"}), 1, "", "a rank lost every replica"},
	} {
		code, stdout, stderr := p2pmpirun(t, c.args...)
		if code != c.code || !strings.Contains(stdout, c.want) || !strings.Contains(stderr, c.wantLogs) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d, %q and %q", c.args, code, stdout, stderr, c.code, c.want, c.wantLogs)
		}
	}
}
