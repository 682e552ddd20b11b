package main

import (
	"math"
	"os"
	"testing"
)

// TestAllExperimentsRun executes every experiment end to end, catching
// panics and regressions in the harness itself. Output goes to the test
// log's stdout; correctness of the numbers is asserted by the package
// tests — this guards the glue.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	// Silence the harness output during tests.
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() {
		os.Stdout = old
		null.Close()
	}()
	for _, e := range experiments() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("experiment %s panicked: %v", e.name, r)
				}
			}()
			e.run()
		})
	}
}

func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments() {
		if seen[e.name] {
			t.Errorf("duplicate experiment %q", e.name)
		}
		seen[e.name] = true
		if e.about == "" {
			t.Errorf("experiment %q has no description", e.name)
		}
		if e.run == nil {
			t.Errorf("experiment %q has no runner", e.name)
		}
	}
}

// TestTable2MeasuredMeetsBound is Table 2's fidelity check: every
// measured replication rate is at least the recipe's exact lower bound
// for its instance and reducer size, and the 2-paths k=2 row prints the
// exact 2(n-2)/q, not the asymptotic 2n/q.
func TestTable2MeasuredMeetsBound(t *testing.T) {
	rows := table2Rows()
	bounded := 0
	for _, row := range rows {
		if !row.hasBound {
			continue
		}
		bounded++
		if math.IsNaN(row.bound) || math.IsInf(row.bound, 0) || row.bound < 1 {
			t.Errorf("%s: bound %v is not a finite rate >= 1", row.name, row.bound)
		}
		if row.r < row.bound-1e-9 {
			t.Errorf("%s: measured r = %.4f below the lower bound %.4f at q = %d", row.name, row.r, row.bound, row.q)
		}
		if row.name == "2-paths hash (n=24, k=2)" {
			if want := 2.0 * 22 / 23; math.Abs(row.bound-want) > 1e-9 || row.q != 23 {
				t.Errorf("%s: bound %.4f at q = %d, want 2(n-2)/q = %.4f at q = 23", row.name, row.bound, row.q, want)
			}
		}
	}
	if bounded != len(rows)-1 {
		t.Errorf("%d of %d rows carry a lower bound, want all but the star join", bounded, len(rows))
	}
}
