package main

import (
	"fmt"
	"io"
)

// worsening returns by what share of the base value a metric got worse from
// base to next (negative when it improved).
func worsening(better string, base, next float64) float64 {
	if better == "higher" {
		return (base - next) / base
	}
	return (next - base) / base
}

// compareRow is one (workload, end-to-end metric) pair of two results files.
type compareRow struct {
	workload  string
	a, b      metric
	worse     float64
	regressed bool
}

// compareReports pairs the end-to-end metrics of two results files, base
// first. A row regresses when it worsens by more than its bound; a workload
// regresses when its share of failed operations rises.
func compareReports(a, b report) (rows []compareRow, failures []string) {
	for _, wa := range a.Workloads {
		var wb *result
		for i := range b.Workloads {
			if b.Workloads[i].Workload == wa.Workload {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			failures = append(failures, fmt.Sprintf("%s: missing from the second file", wa.Workload))
			continue
		}
		fa := float64(wa.Failed) / float64(max(wa.Attempted, 1))
		fb := float64(wb.Failed) / float64(max(wb.Attempted, 1))
		if fb > fa {
			failures = append(failures, fmt.Sprintf("%s: failed operations rose from %d/%d to %d/%d",
				wa.Workload, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted))
		}
		for _, ma := range wa.EndToEnd {
			for _, mb := range wb.EndToEnd {
				if mb.Name != ma.Name {
					continue
				}
				w := worsening(ma.Better, ma.Value, mb.Value)
				rows = append(rows, compareRow{wa.Workload, ma, mb, w, ma.Bound > 0 && w > ma.Bound})
			}
		}
	}
	return rows, failures
}

// runCompare prints every row with both medians, their quartiles and the
// ratio with its base, then the exact counts of two traced runs, and returns
// the process exit code: 1 when any row regressed.
func runCompare(w io.Writer, aPath, bPath string) int {
	a, err := readReport(aPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	b, err := readReport(bPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	rows, failures := compareReports(a, b)
	fmt.Fprintf(w, "base %s (seed %d, P=%d)  against %s (seed %d, P=%d)\n", aPath, a.Seed, a.P, bPath, b.Seed, b.P)
	fmt.Fprintf(w, "%-16s %-14s %12s %25s %12s %25s %22s %6s\n",
		"workload", "metric", "base", "[q1, q3]", "next", "[q1, q3]", "ratio", "bound")
	code := 0
	for _, r := range rows {
		verdict := ""
		if r.regressed {
			verdict = "  REGRESSION"
			code = 1
		}
		fmt.Fprintf(w, "%-16s %-14s %12.6g %25s %12.6g %25s %8.3f of base %-5.4g %6.2f%s\n",
			r.workload, r.a.Name, r.a.Value, quartileText(r.a), r.b.Value, quartileText(r.b),
			r.b.Value/r.a.Value, r.a.Value, r.a.Bound, verdict)
	}
	for _, f := range failures {
		fmt.Fprintln(w, "REGRESSION:", f)
		code = 1
	}
	printCounts(w, a, b)
	return code
}

func quartileText(m metric) string {
	if m.N <= 1 {
		return "-"
	}
	return fmt.Sprintf("[%.5g, %.5g]", m.Q1, m.Q3)
}

// printCounts lists the per-layer metrics that are exact counts, which two
// runs of the same code on the same seed must reproduce.
func printCounts(w io.Writer, a, b report) {
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wb.Workload != wa.Workload {
				continue
			}
			for _, ma := range wa.Layers {
				for _, mb := range wb.Layers {
					if ma.Name != mb.Name || ma.Unit != "count" {
						continue
					}
					verdict := "same"
					if ma.Value != mb.Value {
						verdict = "DIFFERS"
					}
					fmt.Fprintf(w, "%-16s %-34s %12g %12g  %s\n", wa.Workload, ma.Name, ma.Value, mb.Value, verdict)
				}
			}
		}
	}
}
