// Command bench is the repository's benchmark: six named workloads, four
// gated end-to-end metrics and a per-layer cost budget, all measured from
// outside by calling the repo's public functions. See README.md.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run; the last line is JSON
//	bench [--seed N] [--seconds S] [--reps R]             every workload, untraced then traced
//	bench --compare a.json b.json                         judge two result files by the bounds
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func defaultOut() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "every input is generated from this")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per run (five windows of a fifth each)")
	trace := fs.Int("trace", 0, "1 = the traced per-layer pass, 0 = the end-to-end pass")
	reps := fs.Int("reps", 1, "all-workloads mode: untraced runs per workload, seeds seed..seed+reps-1")
	out := fs.String("out", defaultOut(), "directory for result.json and trace-<workload>.jsonl")
	compare := fs.Bool("compare", false, "compare two result files: --compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("--compare takes two result files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	case fs.NArg() != 0:
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	case *seconds <= 0 || *reps < 1:
		return errors.New("--seconds must be positive and --reps at least 1")
	case *name == "all":
		return runAll(stdout, *seed, *seconds, *reps, *out)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	rep, err := runWorkload(runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out, log: stdout})
	if err != nil {
		return err
	}
	printMetrics(stdout, metricDefs(*trace == 1), rep.Metrics)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or were rejected by the oracle", w.name, rep.Failed, rep.Attempted)
	}
	return nil
}

// hostStamp says where and how a result file was measured.
type hostStamp struct {
	NumCPU     int    `json:"numCPU"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func stampHost() hostStamp {
	h := hostStamp{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: "unknown", Commit: "unknown",
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	// The commit is stamped by the go tool when the build happens inside a
	// git work tree; the driver's checkouts are not one.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// series is one end-to-end metric of one workload across the untraced runs.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// Spread is the interquartile distance as a share of the median.
	Spread float64 `json:"spread"`
}

// workloadResult is everything result.json holds for one workload.
type workloadResult struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]*series     `json:"endToEnd"`
	PerLayer  map[string]metricValue `json:"perLayer"`
}

// resultFile is <out>/result.json.
type resultFile struct {
	Host          hostStamp        `json:"host"`
	Seed          int64            `json:"seed"`
	Reps          int              `json:"reps"`
	Seconds       float64          `json:"seconds"`
	WindowSeconds float64          `json:"windowSeconds"`
	Workloads     []workloadResult `json:"workloads"`
}

// child re-executes this binary for one run, so that every workload gets a
// process (heap, GC phase, goroutines) of its own, and parses the run's
// last line.
func child(stdout io.Writer, w workload, seed int64, seconds float64, trace int, out string) (report, error) {
	cmd := exec.Command(os.Args[0],
		"--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace), "--out", out)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // Run waits for the child to end
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, fmt.Errorf("%s: run printed no result (%v)", w.name, errors.Join(runErr, err))
	}
	return rep, nil // a run the oracle rejected still reports; the caller reads Correct
}

// runAll is the one command: every workload with tracing off for the
// end-to-end metrics, then a traced pass for the per-layer numbers.
func runAll(stdout io.Writer, seed int64, seconds float64, reps int, out string) error {
	res := resultFile{Host: stampHost(), Seed: seed, Reps: reps, Seconds: seconds, WindowSeconds: seconds / measuredWindows}
	var wrong []string
	for _, w := range workloads {
		wr := workloadResult{Name: w.name, Why: w.why, Correct: true, EndToEnd: make(map[string]*series)}
		for _, d := range endToEnd {
			wr.EndToEnd[d.name] = &series{Unit: d.unit}
		}
		for r := 0; r < reps; r++ {
			rep, err := child(stdout, w, seed+int64(r), seconds, 0, out)
			if err != nil {
				return err
			}
			wr.Correct = wr.Correct && rep.Correct
			wr.Attempted += rep.Attempted
			wr.Failed += rep.Failed
			for name, s := range wr.EndToEnd {
				s.Values = append(s.Values, rep.Metrics[name].Value)
			}
		}
		for _, s := range wr.EndToEnd {
			s.Median, s.Spread = median(s.Values), iqrShare(s.Values)
		}
		rep, err := child(stdout, w, seed, seconds, 1, out)
		if err != nil {
			return err
		}
		wr.Correct = wr.Correct && rep.Correct
		wr.PerLayer = rep.Metrics
		if !wr.Correct {
			wrong = append(wrong, w.name)
		}
		res.Workloads = append(res.Workloads, wr)
	}
	printSummary(stdout, res)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if len(wrong) > 0 {
		return fmt.Errorf("failed or rejected operations on %v", wrong)
	}
	return nil
}

func printSummary(w io.Writer, res resultFile) {
	h := res.Host
	fmt.Fprintf(w, "\nhost: %d CPUs, GOMAXPROCS %d, %s, kernel %s, commit %s; seed %d, %d run(s) of 5 windows x %.2f s\n",
		h.NumCPU, h.GoMaxProcs, h.GoVersion, h.Kernel, h.Commit, res.Seed, res.Reps, res.WindowSeconds)
	fmt.Fprintf(w, "%-16s", "end to end")
	for _, d := range endToEnd {
		fmt.Fprintf(w, " %22s", d.name+" ["+d.unit+"]")
	}
	fmt.Fprintf(w, " %14s\n", "failed/attempted")
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "%-16s", wr.Name)
		for _, d := range endToEnd {
			fmt.Fprintf(w, " %22.6g", wr.EndToEnd[d.name].Median)
		}
		fmt.Fprintf(w, " %8d/%d\n", wr.Failed, wr.Attempted)
	}
}
