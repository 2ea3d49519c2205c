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

// TestChurnSmokeMatchesGolden: one tiny survivability sweep; the
// nemesis preset must reproduce golden_churn.csv.
func TestChurnSmokeMatchesGolden(t *testing.T) {
	matchesGolden(t, "golden_churn.csv", "[churn done in ", "-exp", "churn", "-grid", "synth:S=3,H=8", "-mtbf", "300",
		"-R", "1,2", "-a", "spread", "-cjobs", "3", "-n", "6", "-dur", "40", "-format", "csv")
}

// openSmoke is a diurnal multi-tenant steady state with deadlines;
// golden_open.csv pins its CSV.
var openSmoke = []string{"-exp", "open", "-grid", "synth:S=3,H=8", "-seed", "42",
	"-arrival", "diurnal:peak=0.05,trough=0.01,period=30m,maintevery=15m,maintdur=90s",
	"-tenants", "3", "-skew", "1", "-prilevels", "2", "-duration", "40m", "-nmin", "2", "-nmax", "8",
	"-durmin", "15", "-durmax", "120", "-inflight", "4", "-deadline", "8,4", "-warmup", "auto", "-a", "concentrate,spread"}

// TestOpenSmokeMatchesGolden: the open system end to end must
// reproduce golden_open.csv.
func TestOpenSmokeMatchesGolden(t *testing.T) {
	matchesGolden(t, "golden_open.csv", "[open done in ", append(openSmoke, "-format", "csv")...)
}

// TestSLOSmokeMatchesGolden: quotas, preemption and deadlines on an
// inverted-skew federated tenancy must reproduce golden_slo.csv.
func TestSLOSmokeMatchesGolden(t *testing.T) {
	matchesGolden(t, "golden_slo.csv", "[open done in ", "-exp", "open", "-grid", "synth:S=3,H=8", "-seed", "7", "-sn", "4",
		"-arrival", "weekly:peak=0.1,trough=0.025,period=70m", "-tenants", "3", "-skew", "-1", "-prilevels", "2",
		"-duration", "50m", "-nmin", "4", "-nmax", "16", "-durmin", "30", "-durmax", "240", "-inflight", "8",
		"-quota", "8", "-quotaburst", "300", "-preempt", "-deadline", "6,3", "-a", "concentrate,spread", "-format", "csv")
}

// tableCells reads a -format table output back as CSV: after the title
// line, it cuts each line at the columns where its block's header
// fields start and joins the cells with commas; an empty line ends a
// block.
func tableCells(t *testing.T, table, title string) string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(table, "\n"), "\n")
	if lines[0] != title {
		t.Fatalf("table starts %q, want the title %q", lines[0], title)
	}
	var b strings.Builder
	var starts []int // the header's column offsets; nil before a header
	for _, l := range lines[1:] {
		if l == "" {
			starts = nil
			b.WriteString("\n")
			continue
		}
		if starts == nil {
			for i := range l {
				if l[i] != ' ' && (i == 0 || l[i-1] == ' ') {
					starts = append(starts, i)
				}
			}
		}
		cells := make([]string, len(starts))
		for j, st := range starts {
			end := len(l)
			if j+1 < len(starts) {
				end = min(starts[j+1], end)
			}
			cells[j] = strings.TrimRight(l[min(st, end):end], " ")
		}
		b.WriteString(strings.Join(cells, ",") + "\n")
	}
	return b.String()
}

// TestTableIsTheCSVCells: -format table prints the step's title and
// then exactly the CSV's cells, one column per header field — Table 1
// (cells with spaces), the open smoke (an arrival cell with commas) and
// the nemesis smoke at -sn 4 (two blocks).
func TestTableIsTheCSVCells(t *testing.T) {
	golden := func(name string) string {
		b, err := os.ReadFile("../../internal/exp/testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, c := range []struct {
		title string
		csv   func() string // the CSV the table must hold
		args  []string
	}{
		{"Table 1. Characteristics of available computing resources", func() string { return exp.Table1Sheet().CSV() },
			[]string{"-exp", "table1"}},
		{"Open-system steady state — synth:S=3,H=8,C=2,seed=1,rttmin=5ms,rttmax=25ms, " +
			"diurnal:peak=0.05,trough=0.01,period=30m0s,maintevery=15m0s,maintdur=1m30s, 3 tenants, 40m0s horizon",
			func() string { return golden("golden_open.csv") }, openSmoke},
		{"Network nemesis — synth:S=3,H=8,C=2,seed=1,rttmin=5ms,rttmax=25ms, n=6 r=2, 4 jobs/point, 60s jobs", nil,
			[]string{"-exp", "nemesis", "-grid", "synth:S=3,H=8", "-faults", "part:mtbf=90", "-loss", "0.2",
				"-partdur", "40", "-n", "6", "-r", "2", "-cjobs", "4", "-dur", "60", "-sn", "4"}},
	} {
		if testing.Short() && c.args[1] != "table1" {
			continue // boots worlds
		}
		code, table, stderr := gridbench(t, c.args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", c.args, code, stderr)
		}
		var want string
		if c.csv != nil {
			want = c.csv()
		} else {
			_, want, _ = gridbench(t, append(c.args, "-format", "csv")...)
		}
		if got := tableCells(t, table, c.title); got != want {
			t.Errorf("%v: the table's cells\n%s\ndiffer from the CSV\n%s", c.args, got, want)
		}
	}
}

// TestEstimatorsCSV: -exp estimators prints its points as
// kind,rounds,tau CSV, or as the same cells aligned under its title (it
// once printed the table for both).
func TestEstimatorsCSV(t *testing.T) {
	pts := []exp.EstimatorPoint{{Kind: latency.KindLast, Rounds: 4, Tau: 0.61234}, {Kind: latency.KindEWMA, Rounds: 4, Tau: -0.05}}
	s := estimatorStep(func() ([]exp.EstimatorPoint, error) { return pts, nil })
	sheet, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	if want := "kind,rounds,tau\nlast,4,0.6123\newma,4,-0.0500\n"; sheet.CSV() != want {
		t.Errorf("csv:\n%s\nwant:\n%s", sheet.CSV(), want)
	}
	if want := "Estimator study: booking-order quality after 4 probe rounds\n" +
		"kind  rounds  tau\n" +
		"last  4       0.6123\n" +
		"ewma  4       -0.0500\n"; sheet.Table(s.title) != want {
		t.Errorf("table:\n%s\nwant:\n%s", sheet.Table(s.title), want)
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
