package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// gridbench runs the command in-process and returns its exit code,
// stdout and stderr.
func gridbench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestUsageErrors: a flag value the experiment cannot take exits 2
// with a message naming the flag, before anything runs.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "nope"}, `unknown experiment "nope" (try also: conc, scale, churn, open, nemesis, estimators)`},
		{[]string{"-exp", "fig2", "-grid", "synth:S=3,H=8"}, "only applies to -exp conc, scale, churn, open and nemesis; the paper figures are pinned to grid5000"},
		{[]string{"-exp", "all", "-grid", "synth:S=3,H=8"}, "the paper figures are pinned to grid5000"},
		{[]string{"-exp", "estimators", "-grid", "synth:S=3,H=8"}, "the paper figures are pinned to grid5000"},
		{[]string{"-exp", "fig4is", "-sn", "4"}, "-sn: only applies to -exp conc, scale, churn, open and nemesis"},
		{[]string{"-exp", "conc", "-sn", "1,4"}, "-sn: conc takes a single federation width"},
		{[]string{"-exp", "open"}, "-duration: -exp open needs it"},
		{[]string{"-exp", "churn"}, "-mtbf: -exp churn needs a comma-separated axis of positive durations"},
		{[]string{"-exp", "churn", "-mtbf", "600,0"}, "-mtbf: need a comma-separated axis of positive durations"},
		{[]string{"-exp", "nemesis", "-loss", "0,x"}, `-loss: bad value "x"`},
		{[]string{"-exp", "nemesis", "-loss", "-0.1"}, `-loss: bad value "-0.1"`},
		{[]string{"-exp", "conc", "-jobs", ","}, "-jobs: no values"},
		{[]string{"-exp", "conc", "-a", "nope"}, "-a: core: unknown allocation strategy"},
	} {
		code, stdout, stderr := gridbench(t, c.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and %q", c.args, code, stdout, stderr, c.want)
		}
	}
}

// TestHelpListsExperiments: -h exits 0 and the -exp usage names every
// row of the table, the paper's figures and "all" first.
func TestHelpListsExperiments(t *testing.T) {
	code, stdout, stderr := gridbench(t, "-h")
	want := "experiment: table1|fig2|fig3|fig4ep|fig4is|all|conc|scale|churn|open|nemesis|estimators"
	if code != 0 || stdout != "" || !strings.Contains(stderr, want) {
		t.Fatalf("-h: exit %d, stdout %q; want exit 0 and %q in:\n%s", code, stdout, want, stderr)
	}
}

// TestTable1CSV: a figure prints to stdout and reports its wall time on
// stderr.
func TestTable1CSV(t *testing.T) {
	code, stdout, stderr := gridbench(t, "-exp", "table1", "-format", "csv")
	if code != 0 || !strings.HasPrefix(stdout, "site,cluster,") || !strings.HasPrefix(stderr, "[table1 done in ") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestConcSmokeMatchesGolden is CI's conc smoke in-process: two
// contended batches must reproduce the committed golden byte for byte.
func TestConcSmokeMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("boots worlds")
	}
	want, err := os.ReadFile("../../internal/exp/testdata/golden_conc.csv")
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := gridbench(t, "-exp", "conc", "-grid", "synth:S=3,H=8", "-jobs", "1,2", "-n", "6", "-a", "spread", "-format", "csv")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if stdout != string(want) {
		t.Fatalf("stdout differs from golden_conc.csv:\n got: %s\nwant: %s", stdout, want)
	}
	if !strings.HasPrefix(stderr, "[conc/spread done in ") {
		t.Fatalf("stderr %q, want the step's wall-time line", stderr)
	}
}
