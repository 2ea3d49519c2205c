package main

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"p2pmpi/internal/exp"
	"p2pmpi/internal/faults"
	"p2pmpi/internal/latency"
	"p2pmpi/internal/vtime"
	"p2pmpi/internal/workload"
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

// matchesGolden runs gridbench in-process and fails unless its stdout
// equals the named golden under internal/exp/testdata byte for byte and
// its stderr starts with the first step's wall-time line.
func matchesGolden(t *testing.T, golden, stderrPrefix string, args ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("boots worlds")
	}
	want, err := os.ReadFile("../../internal/exp/testdata/" + golden)
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := gridbench(t, args...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if stdout != string(want) {
		t.Fatalf("stdout differs from %s:\n got: %s\nwant: %s", golden, stdout, want)
	}
	if !strings.HasPrefix(stderr, stderrPrefix) {
		t.Fatalf("stderr %q, want the step's wall-time line", stderr)
	}
}

// TestConcSmokeMatchesGolden is CI's conc smoke in-process: two
// contended batches must reproduce the committed golden byte for byte.
func TestConcSmokeMatchesGolden(t *testing.T) {
	matchesGolden(t, "golden_conc.csv", "[conc/spread done in ",
		"-exp", "conc", "-grid", "synth:S=3,H=8", "-jobs", "1,2", "-n", "6", "-a", "spread", "-format", "csv")
}

// TestPaperSmokeMatchesGolden pins the paper's Table 1 and Figures 2–4
// at seed 42: -exp all must reproduce golden_paper.csv, which is the
// same at any -workers.
func TestPaperSmokeMatchesGolden(t *testing.T) {
	matchesGolden(t, "golden_paper.csv", "[table1 done in ", "-exp", "all", "-format", "csv", "-workers", "4")
}

// TestScaleSmokeMatchesGolden: one small scale sweep over every
// strategy must reproduce golden_scale.csv.
func TestScaleSmokeMatchesGolden(t *testing.T) {
	matchesGolden(t, "golden_scale.csv", "[scale done in ", "-exp", "scale", "-grid", "synth:S=3,H=8", "-n", "6", "-format", "csv")
}

// TestEstimatorsCSV: -exp estimators renders its points as a table or
// as kind,rounds,tau CSV (it once printed the table for both).
func TestEstimatorsCSV(t *testing.T) {
	pts := []exp.EstimatorPoint{{Kind: latency.KindLast, Rounds: 4, Tau: 0.61234}, {Kind: latency.KindEWMA, Rounds: 4, Tau: -0.05}}
	table, csv, err := estimatorStep(func() ([]exp.EstimatorPoint, error) { return pts, nil }).run()
	if err != nil {
		t.Fatal(err)
	}
	if want := "kind,rounds,tau\nlast,4,0.6123\newma,4,-0.0500\n"; csv != want {
		t.Errorf("csv:\n%s\nwant:\n%s", csv, want)
	}
	if want := "Estimator study: booking-order quality after 4 probe rounds\n" +
		"kind      kendall-tau\n" +
		"last           0.6123\n" +
		"ewma          -0.0500\n"; table != want {
		t.Errorf("table:\n%s\nwant:\n%s", table, want)
	}
}

// TestDurationsCheckedAlike: a duration reads the same wherever it is
// written — a gridbench flag, a -faults field, an -arrival field — and
// a negative, NaN, infinite or over-1e9-second value is refused by all
// three.
func TestDurationsCheckedAlike(t *testing.T) {
	parsers := []struct {
		name  string
		parse func(string) error
	}{
		{"-mttr", func(v string) error {
			if code, _, stderr := gridbench(t, "-exp", "churn", "-mtbf", "600", "-mttr", v); code != 0 {
				return errors.New(stderr)
			}
			return nil
		}},
		{"-faults part:mtbf=", func(v string) error {
			_, err := faults.ParseFaultSpec("part:mtbf=" + v)
			return err
		}},
		{"-arrival period=", func(v string) error {
			_, err := workload.ParseArrivalSpec("diurnal:peak=0.05,trough=0.01,period=" + v)
			return err
		}},
	}
	for _, c := range []struct {
		v    string
		want string // "" = accepted
	}{
		{"-5", `duration "-5" out of range`},
		{"-3s", `bad duration "-3s"`},
		{"NaN", `duration "NaN" out of range`},
		{"Inf", `duration "Inf" out of range`},
		{"1e11", `duration "1e11" out of range`},
		{"300000h", `duration "300000h" out of range`},
		{"10 minutes", `bad duration "10 minutes"`},
		{"600", ""},
		{"1e9", ""},
		{"10m", ""},
	} {
		want, err := vtime.ParseDuration(c.v)
		if (err == nil) != (c.want == "") || err != nil && err.Error() != c.want {
			t.Errorf("vtime.ParseDuration(%q) = %v, %v; want error %q", c.v, want, err, c.want)
		}
		for _, p := range parsers {
			if c.want == "" && p.name == "-mttr" {
				continue // an accepted value would run the sweep
			}
			err := p.parse(c.v)
			if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
				t.Errorf("%s%s: error %v, want %q", p.name, c.v, err, c.want)
			}
		}
	}
}
