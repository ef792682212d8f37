// Command benchtables regenerates every table and figure report of the
// reproduction (the EXPERIMENTS.md numbers): the Table 1 and Table 2
// condition equivalences, the Figure 1(a)/(b) claims, the Theorem 4
// sufficiency matrix, the Lemma 15 convergence series, the Theorem 18
// necessity construction, the baseline comparisons and the structural and
// scaling studies.
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
	"time"

	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/prof"
)

// experiment is one catalog entry. run returns the rendered report and,
// for experiments that measure per-scenario cells (the E14 ladder, the
// exact tier), those cells with their skip notes; when such an
// experiment is the sole selection, -json records the cells as "runs"
// instead of the per-experiment timing. The two report forms are mutually
// exclusive by schema.
type experiment struct {
	name string
	desc string
	run  func(ctx context.Context, seed int64, workers int) (string, *experiments.BenchReport, error)
}

// catalog lists every experiment; maxN caps the E14 ladder (0 = the build's
// node limit).
func catalog(maxN int) []experiment {
	return []experiment{
		{"table1", "E1: undirected condition equivalences (Table 1)", func(_ context.Context, seed int64, _ int) (string, *experiments.BenchReport, error) {
			rep := experiments.Table1(8, seed)
			return rep.Render(), nil, nil
		}},
		{"table2", "E2: directed condition equivalences (Table 2, Theorem 17)", func(_ context.Context, seed int64, _ int) (string, *experiments.BenchReport, error) {
			rep := experiments.Table2(12, seed)
			return rep.Render(), nil, nil
		}},
		{"fig1a", "E3: Figure 1(a) claims + BW run", func(_ context.Context, seed int64, _ int) (string, *experiments.BenchReport, error) {
			rep, err := experiments.RunFig1a(seed)
			return rep.Render(), nil, err
		}},
		{"fig1b", "E4: Figure 1(b) claims (exhaustive f=2) + scaled BW run", func(_ context.Context, seed int64, _ int) (string, *experiments.BenchReport, error) {
			rep, err := experiments.RunFig1b(seed)
			return rep.Render(), nil, err
		}},
		{"sufficiency", "E5: Theorem 4 sufficiency matrix (graph x adversary)", func(_ context.Context, seed int64, _ int) (string, *experiments.BenchReport, error) {
			rep, err := experiments.RunSufficiency(seed)
			return rep.Render(), nil, err
		}},
		{"sweep", "E5b: BW on random 3-reach digraphs with random adversaries", func(ctx context.Context, seed int64, workers int) (string, *experiments.BenchReport, error) {
			rep, err := experiments.RunSweepExec(ctx, 8, seed+1000, workers)
			return rep.Render(), nil, err
		}},
		{"convergence", "E6: Lemma 15 per-round contraction", func(_ context.Context, seed int64, _ int) (string, *experiments.BenchReport, error) {
			rep, err := experiments.RunConvergence(seed)
			return rep.Render(), nil, err
		}},
		{"necessity", "E7: Theorem 18 necessity construction", func(_ context.Context, seed int64, _ int) (string, *experiments.BenchReport, error) {
			rep, err := experiments.RunNecessity(seed)
			return rep.Render(), nil, err
		}},
		{"aad", "E8: Abraham-Amit-Dolev baseline vs BW", func(_ context.Context, seed int64, _ int) (string, *experiments.BenchReport, error) {
			rep, err := experiments.RunAADComparison(seed)
			return rep.Render(), nil, err
		}},
		{"iterative", "E9: local iterative ablation", func(_ context.Context, seed int64, _ int) (string, *experiments.BenchReport, error) {
			rep, err := experiments.RunIterativeAblation(seed)
			return rep.Render(), nil, err
		}},
		{"kreach", "E10: k-reach hierarchy (Appendix A)", func(_ context.Context, seed int64, _ int) (string, *experiments.BenchReport, error) {
			rep := experiments.RunKReach()
			return rep.Render(), nil, nil
		}},
		{"structure", "E11: Theorems 5 and 12 structure checks", func(_ context.Context, seed int64, _ int) (string, *experiments.BenchReport, error) {
			rep := experiments.RunStructure()
			return rep.Render(), nil, nil
		}},
		{"crashcell", "Table 2 crash/async cell (Theorem 2 algorithm)", func(_ context.Context, seed int64, _ int) (string, *experiments.BenchReport, error) {
			rep, err := experiments.RunCrashCell(seed)
			return rep.Render(), nil, err
		}},
		{"scaling", "E12: BW cost growth on circulant family", func(_ context.Context, seed int64, _ int) (string, *experiments.BenchReport, error) {
			rep, err := experiments.RunScaling(seed)
			return rep.Render(), nil, err
		}},
		{"attackmatrix", "E13: protocol x adversary x graph attack matrix (registry-driven)", func(ctx context.Context, seed int64, workers int) (string, *experiments.BenchReport, error) {
			rep, err := experiments.RunAttackMatrixExec(ctx, seed, workers)
			return rep.Render(), nil, err
		}},
		{"scale", "E14: scale-out study to n=-maxn (default 128; -maxn 0 = the full ladder to the build's node limit)", func(ctx context.Context, seed int64, _ int) (string, *experiments.BenchReport, error) {
			// The default benchtables invocation runs every experiment, so
			// -maxn defaults to a seconds-scale cap; the full ladder to
			// n=1024 is a multi-minute, multi-GB run asked for explicitly.
			rep, err := experiments.RunScaleExec(ctx, seed, maxN)
			return rep.Render(), &experiments.BenchReport{Runs: rep.BenchRuns(), Skipped: rep.Skipped}, err
		}},
		{"exact", "E15: exact tier (aba, acs) x complete-graph families x the adversary matrix", func(ctx context.Context, seed int64, workers int) (string, *experiments.BenchReport, error) {
			rep, err := experiments.RunExactExec(ctx, seed, workers)
			if err != nil {
				return "", nil, err
			}
			if !rep.AllPassed() {
				return "", nil, fmt.Errorf("exact matrix has failing cells:\n%s", rep.Render())
			}
			return rep.Render(), &experiments.BenchReport{Runs: rep.BenchRuns()}, nil
		}},
	}
}

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
		jsonPath   = fs.String("json", "", "also write per-experiment timings (or a sole scale/exact selection's cells) to this JSON file")
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

	all := catalog(*maxN)
	if *list {
		for _, e := range all {
			fmt.Fprintf(stdout, "%-12s %s\n", e.name, e.desc)
		}
		return nil
	}

	selected := all
	if names := fs.Args(); len(names) > 0 {
		byName := make(map[string]experiment, len(all))
		for _, e := range all {
			byName[e.name] = e
		}
		selected = selected[:0]
		for _, name := range names {
			e, ok := byName[name]
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", name)
			}
			selected = append(selected, e)
		}
	}

	// Reports stay deterministic whatever the fan-out; only the wall-clock
	// changes. -workers is one concurrency budget, not two multiplying
	// levels: with several experiments selected it fans the experiments and
	// the sweeps inside each stay sequential; with a single experiment
	// selected it goes to that experiment's internal fan-out.
	inner := 1
	if len(selected) == 1 {
		inner = *workers
	}

	type outcome struct {
		text   string
		timing experiments.BenchRun
		cells  *experiments.BenchReport
	}
	// Experiments share nothing, so they fan across the pool freely;
	// par.Map returns them in catalog order, keeping the printed report
	// identical at any worker count.
	results, err := par.Map(ctx, *workers, len(selected), func(i int) (outcome, error) {
		e := selected[i]
		start := time.Now()
		out, cells, err := e.run(ctx, *seed, inner)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", e.name, err)
		}
		elapsed := time.Since(start)
		return outcome{
			text:   fmt.Sprintf("%s\n  [%s took %v]\n", out, e.name, elapsed.Round(time.Millisecond)),
			timing: experiments.BenchRun{Name: e.name, Ms: float64(elapsed.Microseconds()) / 1000},
			cells:  cells,
		}, nil
	})
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Fprintln(stdout, r.text)
	}

	if *jsonPath != "" {
		// A sole selected experiment that measured per-scenario cells
		// records them as runs; any other selection records the
		// per-experiment timings. The schema forbids mixing the two, so a
		// multi-experiment selection never emits cells. Workers at report
		// level is this process's setting.
		var report experiments.BenchReport
		if len(results) == 1 && results[0].cells != nil {
			report = *results[0].cells
			report.Suite = selected[0].name
		} else {
			for _, r := range results {
				report.Experiments = append(report.Experiments, r.timing)
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
	return nil
}
