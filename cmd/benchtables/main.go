// Command benchtables regenerates every table and figure report of the
// reproduction (the EXPERIMENTS.md numbers): the Table 1 and Table 2
// condition equivalences, the Figure 1(a)/(b) claims, the Theorem 4
// sufficiency matrix, the Lemma 15 convergence series, the Theorem 18
// necessity construction, the baseline comparisons and the structural and
// scaling studies. It exits non-zero, naming each failing cell and check,
// when any selected suite misses a claim.
//
// Usage:
//
//	benchtables                     # run everything
//	benchtables table1 fig1b        # run selected experiments
//	benchtables -list               # list experiment names
//	benchtables -workers 4          # fan experiments across 4 workers
//	benchtables -json out.json      # also record timings as JSON
//	benchtables -maxn 0 -json e14.json scale   # the full E14 ladder, per-cell rows
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/prof"
)

// catalog is experiments.Catalog; tests swap in suites whose claims miss.
var catalog = experiments.Catalog

func main() {
	// An interrupt stops the run between experiments, and the E14 ladder
	// between cells, instead of leaving a long run unkillable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchtables", flag.ExitOnError)
	var (
		list       = fs.Bool("list", false, "list experiments and exit")
		seed       = fs.Int64("seed", 1, "base seed for all randomized pieces")
		workers    = fs.Int("workers", 1, "run experiments on this many workers (0 = one per CPU); output order is fixed")
		maxN       = fs.Int("maxn", 128, "scale: largest graph order of the E14 ladder (0 = the build's node limit)")
		jsonPath   = fs.String("json", "", "also write per-experiment timings (or a sole selection's cells) to this JSON file")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	fs.Parse(args) // ExitOnError: a bad flag never returns

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
		}
	}()

	all := catalog(*seed, *maxN)
	if *list {
		for _, su := range all {
			fmt.Fprintf(stdout, "%-12s %s\n", su.Name, su.Title)
		}
		return nil
	}

	selected := all
	if names := fs.Args(); len(names) > 0 {
		byName := make(map[string]experiments.Suite, len(all))
		for _, su := range all {
			byName[su.Name] = su
		}
		selected = selected[:0]
		for _, name := range names {
			su, ok := byName[name]
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", name)
			}
			selected = append(selected, su)
		}
	}

	// Reports stay deterministic whatever the fan-out; only the wall-clock
	// changes. -workers is one concurrency budget, not two multiplying
	// levels: with several suites selected it fans the suites and the cells
	// inside each run sequentially; with a single suite selected it goes to
	// that suite's cells.
	inner := 1
	if len(selected) == 1 {
		inner = *workers
	}

	type outcome struct {
		rep     experiments.Report
		elapsed time.Duration
	}
	// Suites share nothing, so they fan across the pool freely; par.Map
	// returns them in catalog order, keeping the printed report identical
	// at any worker count.
	results, err := par.Map(ctx, *workers, len(selected), func(i int) (outcome, error) {
		start := time.Now()
		rep, err := selected[i].Run(ctx, inner)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", selected[i].Name, err)
		}
		return outcome{rep, time.Since(start)}, nil
	})
	if err != nil {
		return err
	}
	var failures []string
	for _, r := range results {
		fmt.Fprintf(stdout, "%s\n  [%s took %v]\n\n", r.rep.Render(), r.rep.Suite.Name, r.elapsed.Round(time.Millisecond))
		failures = append(failures, r.rep.Failures()...)
	}

	if *jsonPath != "" {
		// A sole selected suite with cells records its rows as runs and its
		// notes as skips; any other selection records the per-suite
		// timings. The schema forbids mixing the two. Workers at report
		// level is this process's setting.
		var report experiments.BenchReport
		if r := results[0]; len(results) == 1 && len(r.rep.Rows) > 0 {
			report = experiments.BenchReport{Suite: r.rep.Suite.Name, Runs: r.rep.BenchRuns(), Skipped: r.rep.Suite.Notes}
		} else {
			for _, r := range results {
				report.Experiments = append(report.Experiments, experiments.BenchRun{Name: r.rep.Suite.Name, Ms: float64(r.elapsed.Microseconds()) / 1000})
			}
		}
		report.Workers, report.Seed = *workers, *seed
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	if len(failures) > 0 {
		return fmt.Errorf("claims missed (%d):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}
