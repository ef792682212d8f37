package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (resultFile, error) {
	var r resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verdict judges one (metric, workload) pair: b's median against a's by the
// metric's bound. A pair whose run-to-run spread on either side is wider
// than the bound is unresolved, not unchanged.
func verdict(d metricDef, a, b *series) (worse float64, word string) {
	worse = ratio(b.Median-a.Median, a.Median)
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case a.Spread > d.bound || b.Spread > d.bound:
		word = "unresolved"
	case worse > d.bound:
		word = "WORSE"
	case worse < -d.bound:
		word = "better"
	default:
		word = "same"
	}
	return worse, word
}

// compareFiles prints one row per workload and metric and fails when any
// pair is worse than its bound allows, or any operation failed in b.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	byName := make(map[string]workloadResult, len(a.Workloads))
	for _, wr := range a.Workloads {
		byName[wr.Name] = wr
	}
	fmt.Fprintf(w, "a: %s (commit %s, %d CPUs, %d runs)\nb: %s (commit %s, %d CPUs, %d runs)\n",
		pathA, a.Host.Commit, a.Host.NumCPU, a.Reps, pathB, b.Host.Commit, b.Host.NumCPU, b.Reps)
	if a.Reps < 4 || b.Reps < 4 {
		fmt.Fprintln(w, "note: fewer than 4 runs a side; quartiles of so few values understate the spread")
	}
	fmt.Fprintf(w, "%-16s %-20s %12s %12s %9s %8s %8s %7s  %s\n",
		"workload", "metric", "a median", "b median", "worse by", "a iqr", "b iqr", "bound", "verdict")
	var worse, unresolved int
	for _, wb := range b.Workloads {
		wa, ok := byName[wb.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s only in b\n", wb.Name)
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			if sa == nil || sb == nil {
				continue
			}
			delta, word := verdict(d, sa, sb)
			switch word {
			case "WORSE":
				worse++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-16s %-20s %12.4f %12.4f %+8.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n",
				wb.Name, d.name, sa.Median, sb.Median, 100*delta, 100*sa.Spread, 100*sb.Spread, 100*d.bound, word)
		}
		if share := ratio(float64(wb.Failed), float64(wb.Attempted)); share > ratio(float64(wa.Failed), float64(wa.Attempted)) {
			worse++
			fmt.Fprintf(w, "%-16s %-20s %12d %12d  WORSE (any increase)\n", wb.Name, "failed", wa.Failed, wb.Failed)
		}
	}
	fmt.Fprintf(w, "%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound allows", worse)
	}
	return nil
}
