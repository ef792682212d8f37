package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadSpec(t *testing.T) {
	g, err := load("clique:4", "")
	if err != nil || g.N() != 4 {
		t.Fatalf("load spec: %v %v", g, err)
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("# tiny\nn 3\ne 0 1\ne 1 2\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	g, err := load("", path)
	if err != nil || g.N() != 3 || g.M() != 2 {
		t.Fatalf("load file: %v %v", g, err)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := load("", ""); err == nil {
		t.Error("no source accepted")
	}
	if _, err := load("clique:4", "x.txt"); err == nil {
		t.Error("both sources accepted")
	}
	if _, err := load("", "/does/not/exist"); err == nil {
		t.Error("missing file accepted")
	}
}

// graphcheck runs this test binary as the command when arguments follow
// "--" (flag errors and run's error exit the process), and returns its
// combined output.
func graphcheck(t *testing.T, args ...string) (string, error) {
	if own := flag.Args(); len(own) > 0 {
		os.Args = append([]string{"graphcheck"}, own...)
		flag.CommandLine = flag.NewFlagSet("graphcheck", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	out, err := exec.Command(os.Args[0], append([]string{"-test.run=^" + t.Name() + "$", "--"}, args...)...).CombinedOutput()
	return strings.TrimSpace(string(out)), err
}

// TestGraphcheckRejectsNegativeF: a negative fault bound (and a k below the
// family's first member) used to reach graph.Subsets and panic sizing a
// slice; both are refused at the door with one line naming the flag.
func TestGraphcheckRejectsNegativeF(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"-f", "-1", "graphcheck: -f -1"},
		{"-k", "0", "graphcheck: -k 0"},
	} {
		out, err := graphcheck(t, "-graph", "clique:4", c.flag, c.value)
		if err == nil || !strings.HasPrefix(out, c.want) || strings.Contains(out, "\n") {
			t.Errorf("graphcheck %s %s: err %v, output:\n%s", c.flag, c.value, err, out)
		}
	}
}

// TestGraphcheckLargeGraph: past the small orders the quadratic extras (κ,
// the disjoint-path scan, the k >= 4 rows) are skipped by name while the
// reach conditions are still certified.
func TestGraphcheckLargeGraph(t *testing.T) {
	out, err := graphcheck(t, "-graph", "torus:8:16", "-f", "1", "-k", "4")
	if err != nil {
		t.Fatalf("graphcheck torus:8:16: %v\n%s", err, out)
	}
	for _, want := range []string{"3-reach (BCS, Byzantine — Theorem 4):   true", "κ not computed", "4-reach: skipped", "min disjoint paths over pairs: skipped"} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
}
