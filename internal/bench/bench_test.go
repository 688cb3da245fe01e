package bench

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsRun executes the full experiment suite and validates
// table shape; individual experiments' internal sanity checks (e.g. E1's
// "LSC really picks plan 1", E3's bound check) fail the run on violation.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tab, err := r.Run()
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if tab.ID != r.ID {
				t.Errorf("table ID %q, want %q", tab.ID, r.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("row %d has %d cells, header has %d", i, len(row), len(tab.Header))
				}
			}
			md := tab.Markdown()
			if !strings.Contains(md, tab.Title) || !strings.Contains(md, "|") {
				t.Error("markdown rendering broken")
			}
			var sb strings.Builder
			tab.Fprint(&sb)
			if !strings.Contains(sb.String(), tab.ID) {
				t.Error("plain rendering broken")
			}
		})
	}
}

// TestE1Numbers pins the exact Example 1.1 cost table.
func TestE1Numbers(t *testing.T) {
	tab, err := E1Example11()
	if err != nil {
		t.Fatal(err)
	}
	// Plan 1: 4.2M at 2000, 7M at 700, E = 4.76M.
	if tab.Rows[0][1] != "4200000" || tab.Rows[0][2] != "7000000" || tab.Rows[0][3] != "4760000" {
		t.Errorf("plan 1 row = %v", tab.Rows[0])
	}
	// Plan 2: 4.206M at both, E = 4.206M.
	if tab.Rows[1][1] != "4206000" || tab.Rows[1][2] != "4206000" || tab.Rows[1][3] != "4206000" {
		t.Errorf("plan 2 row = %v", tab.Rows[1])
	}
}

// TestE2AllMatch requires 100% match across all topologies.
func TestE2AllMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab, err := E2AlgorithmCExact()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[1] != row[2] {
			t.Errorf("topology %s: %s/%s matches", row[0], row[2], row[1])
		}
	}
}

// TestE10AdvantageShape: no advantage at cv = 0; the LSC/LEC ratio rises
// materially once the memory distribution straddles the LSC plan's cost
// discontinuity, and never drops below 1 (the LEC plan is never worse).
func TestE10AdvantageShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab, err := E10VarianceSweep()
	if err != nil {
		t.Fatal(err)
	}
	maxRatio := 0.0
	for i, row := range tab.Rows {
		ratio, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("row %d ratio %q", i, row[4])
		}
		if ratio < 1-0.01 {
			t.Errorf("LEC worse than LSC at cv=%s: ratio %v", row[0], ratio)
		}
		if ratio > maxRatio {
			maxRatio = ratio
		}
		if i == 0 && ratio != 1 {
			t.Errorf("cv=0 ratio %v, want 1", ratio)
		}
	}
	if maxRatio < 1.1 {
		t.Errorf("peak advantage %v, want > 1.1", maxRatio)
	}
	// First row (cv=0): identical plans.
	if tab.Rows[0][1] != "false" {
		t.Error("plans differ at cv=0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Claim: "c", Header: []string{"a", "b"}, Finding: "f"}
	tab.AddRow("1", "2")
	md := tab.Markdown()
	for _, want := range []string{"### X", "*Paper claim:* c", "| a | b |", "| 1 | 2 |", "*Measured:* f"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

// TestExperimentsMatchDoc keeps the published tables honest: it regenerates
// every experiment whose table is deterministic (fixed seeds, no timing
// columns) and compares it with its section of EXPERIMENTS.md. E18 prints
// wall-clock columns and is left out. On failure, regenerate the section
// with `go run ./cmd/lecbench -e <id> -format md`.
func TestExperimentsMatchDoc(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	want := map[string]bool{}
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E11", "E12", "E15", "E17", "E19"} {
		want[id] = true
	}
	for _, r := range All() {
		if !want[r.ID] {
			continue
		}
		r := r
		t.Run(r.ID, func(t *testing.T) {
			start := strings.Index(doc, "### "+r.ID+" — ")
			if start < 0 {
				t.Fatalf("EXPERIMENTS.md has no %s section", r.ID)
			}
			section := doc[start:]
			if end := strings.Index(section[1:], "\n### "); end >= 0 {
				section = section[:end+1]
			}
			tab, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := strings.TrimSpace(section), strings.TrimSpace(tab.Markdown()); got != want {
				t.Errorf("EXPERIMENTS.md %s section is stale.\n--- checked in:\n%s\n--- regenerated:\n%s", r.ID, got, want)
			}
		})
	}
}
