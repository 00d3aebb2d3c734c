package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Verdicts of one end-to-end metric on one workload.
const (
	verdictRegression = "REGRESSION" // worse than the baseline by more than the bound
	verdictUnresolved = "unresolved" // within the bound, but the run-to-run spread is wider than the bound
	verdictUnchanged  = "unchanged"  // within the bound, spread within the bound
	verdictImproved   = "improved"   // better than the baseline by more than the bound
)

// compareRow is one end-to-end metric of one workload, baseline (A)
// against candidate (B).
type compareRow struct {
	Workload, Metric string
	A, B             float64 // medians over each file's runs
	SpreadA, SpreadB float64 // (q3-q1)/median; 0 with a single run
	Worse            float64 // share of A by which B is worse (negative: better)
	Bound            float64
	Verdict          string
}

// judge classifies one metric. a and b are the per-run values of the
// baseline and the candidate.
func judge(workloadName string, m metric, a, b []float64) compareRow {
	row := compareRow{
		Workload: workloadName, Metric: m.Name,
		A: median(a), B: median(b), Bound: bound(workloadName, m.Name),
	}
	spread := func(xs []float64) float64 {
		if len(xs) < 2 {
			return 0
		}
		q1, q3 := quartiles(xs)
		return (q3 - q1) / median(xs)
	}
	row.SpreadA, row.SpreadB = spread(a), spread(b)
	row.Worse = (row.B - row.A) / row.A
	if m.Better == "higher" {
		row.Worse = -row.Worse
	}
	// every run of the candidate reads better than every run of the
	// baseline
	separated := true
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "higher" && y <= x) || (m.Better == "lower" && y >= x) {
				separated = false
			}
		}
	}
	switch {
	case row.Worse > row.Bound:
		row.Verdict = verdictRegression
	case math.Max(row.SpreadA, row.SpreadB) > row.Bound && !separated:
		row.Verdict = verdictUnresolved
	case row.Worse < -row.Bound:
		row.Verdict = verdictImproved
	default:
		row.Verdict = verdictUnchanged
	}
	return row
}

// failedShare is failed ÷ attempted operations over a workload's runs.
func failedShare(runs []runRecord) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareFiles judges every workload both files hold. problems names
// each row that fails the comparison.
func compareFiles(a, b *resultFile) (rows []compareRow, problems []string) {
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil || len(wa.Runs) == 0 || len(wb.Runs) == 0 {
			continue
		}
		for _, m := range endToEnd {
			values := func(runs []runRecord) []float64 {
				var v []float64
				for _, r := range runs {
					v = append(v, r.Metrics[m.Name])
				}
				return v
			}
			row := judge(w.Name, m, values(wa.Runs), values(wb.Runs))
			rows = append(rows, row)
			if row.Verdict == verdictRegression {
				problems = append(problems, fmt.Sprintf("%s %s: worse by %.1f %% (bound %.0f %%)",
					row.Workload, row.Metric, 100*row.Worse, 100*row.Bound))
			}
		}
		if fa, fb := failedShare(wa.Runs), failedShare(wb.Runs); fb > fa {
			problems = append(problems, fmt.Sprintf("%s: failed share rose from %.4g to %.4g", w.Name, fa, fb))
		}
	}
	return rows, problems
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareMain implements "benchmark compare a.json b.json": exit 0 when
// no end-to-end metric of any workload got worse by more than its bound
// and no failed share rose, 1 otherwise, 2 on a usage or read error.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare baseline.json candidate.json")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	rows, problems := compareFiles(a, b)
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: the two files share no workload")
		return 2
	}
	fmt.Fprintf(out, "baseline  %s (commit %v)\ncandidate %s (commit %v)\n\n", args[0], a.Provenance["commit"], args[1], b.Provenance["commit"])
	fmt.Fprintf(out, "%-13s %-14s %12s %12s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "baseline", "candidate", "worse%", "bound%", "spreadA%", "spreadB%", "verdict")
	// Unresolved rows are listed apart from unchanged ones: "the noise
	// hid it" is not "it held still".
	for _, pass := range []string{verdictRegression, verdictUnresolved, verdictUnchanged + verdictImproved} {
		for _, r := range rows {
			if !strings.Contains(pass, r.Verdict) {
				continue
			}
			fmt.Fprintf(out, "%-13s %-14s %12.4f %12.4f %+8.1f %6.0f %8.1f %8.1f  %s\n",
				r.Workload, r.Metric, r.A, r.B, 100*r.Worse, 100*r.Bound, 100*r.SpreadA, 100*r.SpreadB, r.Verdict)
		}
	}
	if len(problems) == 0 {
		fmt.Fprintln(out, "\nno end-to-end metric worse than its bound, no failed share rose")
		return 0
	}
	fmt.Fprintln(out)
	for _, p := range problems {
		fmt.Fprintln(out, "FAIL", p)
	}
	return 1
}
