package exp

import (
	"strings"
	"testing"

	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
)

func TestSitePointsCSV(t *testing.T) {
	pts := []SitePoint{{
		N:           250,
		HostsBySite: map[string]int{grid.Nancy: 60, grid.Lyon: 5},
		CoresBySite: map[string]int{grid.Nancy: 240, grid.Lyon: 10},
	}}
	out := SiteSheet(pts).CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "n,hosts_nancy,cores_nancy") {
		t.Fatalf("header = %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "250,60,240,5,10") {
		t.Fatalf("row = %s", lines[1])
	}
}

func TestTimePointsCSV(t *testing.T) {
	pts := []TimePoint{
		{N: 64, Strategy: core.Spread, Seconds: 4.3},
		{N: 32, Strategy: core.Concentrate, Seconds: 4.09},
		{N: 32, Strategy: core.Spread, Seconds: 2.04},
		{N: 64, Strategy: core.Concentrate, Seconds: 2.64},
	}
	out := TimeSheet(pts).CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "n,concentrate_s,spread_s" {
		t.Fatalf("header = %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "32,4.09") || !strings.HasPrefix(lines[2], "64,2.64") {
		t.Fatalf("rows:\n%s", out)
	}
}

// TestRenderSitePoints checks the printed form of a Figure 2/3 sheet:
// the title, the per-site header, and each point's hosts and cores in
// that site's two columns.
func TestRenderSitePoints(t *testing.T) {
	pts := []SitePoint{{
		N:           100,
		HostsBySite: map[string]int{grid.Nancy: 25},
		CoresBySite: map[string]int{grid.Nancy: 100},
	}}
	out := SiteSheet(pts).Table("Figure 2 (concentrate)")
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 3 || lines[0] != "Figure 2 (concentrate)" {
		t.Fatalf("render:\n%s", out)
	}
	head, row := strings.Fields(lines[1]), strings.Fields(lines[2])
	if len(head) != len(row) {
		t.Fatalf("header has %d fields, row %d:\n%s", len(head), len(row), out)
	}
	col := map[string]string{}
	for i, h := range head {
		col[h] = row[i]
	}
	if col["n"] != "100" || col["hosts_nancy"] != "25" || col["cores_nancy"] != "100" || col["hosts_lyon"] != "0" {
		t.Fatalf("render:\n%s", out)
	}
}

// TestRenderTimePoints checks the printed form of a Figure 4 sheet:
// both curves' times appear and the rows are sorted by n.
func TestRenderTimePoints(t *testing.T) {
	pts := []TimePoint{
		{N: 64, Strategy: core.Concentrate, Seconds: 2.5},
		{N: 32, Strategy: core.Concentrate, Seconds: 3.5},
		{N: 32, Strategy: core.Spread, Seconds: 1.5},
		{N: 64, Strategy: core.Spread, Seconds: 4.5},
	}
	out := TimeSheet(pts).Table("Figure 4 (IS)")
	if !strings.Contains(out, "3.500000") || !strings.Contains(out, "4.500000") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[2], "32 ") || !strings.HasPrefix(lines[3], "64 ") {
		t.Fatalf("rows out of order:\n%s", out)
	}
}

func TestTimePointsCSVMissingStrategy(t *testing.T) {
	pts := []TimePoint{{N: 32, Strategy: core.Spread, Seconds: 1}}
	out := TimeSheet(pts).CSV()
	if !strings.Contains(out, "32,,1.000000") {
		t.Fatalf("missing column not blank:\n%s", out)
	}
}

func TestTable1CSV(t *testing.T) {
	out := Table1Sheet().CSV()
	if !strings.Contains(out, "nancy,grelon,Intel Xeon 5110,60,120,240") {
		t.Fatalf("csv:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 9 {
		t.Fatalf("want 1 header + 8 rows:\n%s", out)
	}
}

// TestSheetsCellsMatchHeader builds every output shape from one sample
// point: each row holds one cell per header field, and the table prints
// the title and then one line per row. The open sheet's arrival cell
// holds commas, so its CSV line has more commas than its header; the
// cell count is what must match.
func TestSheetsCellsMatchHeader(t *testing.T) {
	site := []SitePoint{{N: 100, HostsBySite: map[string]int{grid.Nancy: 25}, CoresBySite: map[string]int{grid.Nancy: 100}}}
	nemesis := []NemesisPoint{{Loss: 0.3, PartDurSeconds: 60, SN: 4, SuccessRate: 0.75, Strategy: core.Spread}}
	scale := []ScalePoint{{Strategy: core.Spread, Hosts: 24, SN: 4, Seconds: 1.5}}
	for name, s := range map[string]Sheet{
		"table1":             Table1Sheet(),
		"site":               SiteSheet(site),
		"time":               TimeSheet([]TimePoint{{N: 32, Strategy: core.Spread, Seconds: 1}}),
		"concurrent":         ConcurrentSheet([]ConcurrentPoint{{Strategy: core.Spread, K: 4}}),
		"estimator":          EstimatorSheet([]EstimatorPoint{{Rounds: 4, Tau: 0.5}}),
		"scale":              ScaleSheet(scale),
		"federation":         FederationSheet(scale),
		"nemesis":            NemesisSheet(nemesis),
		"nemesis-federation": NemesisFederationSheet(nemesis),
		"churn":              ChurnSheet(nemesis),
		"open":               OpenSheet([]OpenPoint{{Strategy: core.Spread, Arrival: "diurnal:peak=0.05,trough=0.01"}}),
	} {
		if len(s) < 2 {
			t.Errorf("%s: %d rows, want a header and a point", name, len(s))
			continue
		}
		for i, r := range s[1:] {
			if len(r) != len(s[0]) {
				t.Errorf("%s: row %d has %d cells, header %d: %q", name, i+1, len(r), len(s[0]), r)
			}
		}
		lines := strings.Split(strings.TrimSuffix(s.Table("title"), "\n"), "\n")
		if lines[0] != "title" || len(lines) != len(s)+1 {
			t.Errorf("%s: table %q, want the title and %d rows", name, lines, len(s))
		}
	}
}
