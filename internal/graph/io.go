package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/weakcache"
)

// Unmarshal parses the format written by Marshal.
func Unmarshal(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	var g *Graph
	name := ""
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if name == "" {
				name = strings.TrimSpace(strings.TrimPrefix(text, "#"))
			}
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "n":
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate order declaration", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: want 'n <order>'", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 1 || n > MaxNodes {
				return nil, fmt.Errorf("graph: line %d: bad order %q", line, fields[1])
			}
			g = New(n)
			g.name = name
		case "e":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before order declaration", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'e <from> <to>'", line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge %q", line, text)
			}
			if err := g.AddEdge(u, v); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", line, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	if g == nil {
		return nil, fmt.Errorf("graph: input contained no order declaration")
	}
	return g, nil
}

// DOT renders the graph in Graphviz format. Bidirectional edge pairs are
// drawn once with dir=both to keep figures readable.
func (g *Graph) DOT() string {
	var b strings.Builder
	name := g.name
	if name == "" {
		name = "G"
	}
	fmt.Fprintf(&b, "digraph %q {\n", name)
	drawn := make(map[[2]int]bool)
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		if drawn[[2]int{u, v}] {
			continue
		}
		if g.HasEdge(v, u) {
			fmt.Fprintf(&b, "  %d -> %d [dir=both];\n", u, v)
			drawn[[2]int{v, u}] = true
		} else {
			fmt.Fprintf(&b, "  %d -> %d;\n", u, v)
		}
		drawn[[2]int{u, v}] = true
	}
	b.WriteString("}\n")
	return b.String()
}

// NamedSpecs lists the spec grammar Named accepts, one form per line — the
// single source the CLIs print and the doc comment mirrors.
func NamedSpecs() []string {
	return []string{
		"clique:<n>                 complete digraph",
		"cycle:<n>                  directed cycle",
		"wheel:<k>                  bidirected wheel (k >= 2 rim nodes)",
		"fig1a                      the paper's Figure 1(a) stand-in (W4)",
		"fig1b                      the paper's Figure 1(b) graph (two K7 + 8 bridges)",
		"fig1b-analog               the scaled Figure 1(b) analog (two K4 + 4 bridges)",
		"circulant:<n>:<d1,d2,...>  circulant digraph",
		"random:<n>:<p>:<seed>      random digraph",
		"torus:<rows>:<cols>        bidirected torus grid (rows, cols >= 2)",
		"kregular:<n>:<k>:<seed>    random k-out-regular digraph (1 <= k < n)",
		"expander:<n>:<d>:<seed>    d-regular permutation expander (1 <= d < n/2)",
	}
}

// Named constructs one of the built-in graphs from a spec string, for the
// CLIs and scenario files (the forms NamedSpecs lists):
//
//	clique:<n>       complete digraph
//	cycle:<n>        directed cycle
//	wheel:<k>        bidirected wheel (k rim nodes)
//	fig1a            the paper's Figure 1(a) stand-in (W4)
//	fig1b            the paper's Figure 1(b) graph (two K7 + 8 bridges)
//	fig1b-analog     the scaled Figure 1(b) analog (two K4 + 4 bridges)
//	circulant:<n>:<d1,d2,...>  circulant digraph
//	random:<n>:<p>:<seed>      random digraph
//	torus:<rows>:<cols>        bidirected torus grid
//	kregular:<n>:<k>:<seed>    random k-out-regular digraph
//	expander:<n>:<d>:<seed>    d-regular permutation expander
//
// Every argument is validated — orders outside [1, MaxNodes], probabilities
// outside [0, 1], and surplus arguments are errors, never panics — so specs
// arriving from CLI flags or scenario JSON fail with a message instead of
// crashing the process. Each call builds a fresh graph, which the caller
// may edit; SharedNamed shares one per spec.
func Named(spec string) (*Graph, error) {
	parts := strings.Split(spec, ":")
	arity := func(n int) error {
		if len(parts) != n {
			return fmt.Errorf("graph: spec %q: want %d arguments, have %d", spec, n-1, len(parts)-1)
		}
		return nil
	}
	order := func(i int) (int, error) {
		n, err := strconv.Atoi(parts[i])
		if err != nil {
			return 0, fmt.Errorf("graph: spec %q: bad order %q", spec, parts[i])
		}
		if n < 1 || n > MaxNodes {
			return 0, fmt.Errorf("graph: spec %q: order %d outside [1,%d]", spec, n, MaxNodes)
		}
		return n, nil
	}
	switch parts[0] {
	case "clique":
		if err := arity(2); err != nil {
			return nil, err
		}
		n, err := order(1)
		if err != nil {
			return nil, err
		}
		return Clique(n), nil
	case "cycle":
		if err := arity(2); err != nil {
			return nil, err
		}
		n, err := order(1)
		if err != nil {
			return nil, err
		}
		return DirectedCycle(n), nil
	case "wheel":
		if err := arity(2); err != nil {
			return nil, err
		}
		k, err := strconv.Atoi(parts[1])
		if err != nil || k < 2 || k+1 > MaxNodes {
			return nil, fmt.Errorf("graph: spec %q: rim size must be in [2,%d]", spec, MaxNodes-1)
		}
		return Wheel(k), nil
	case "fig1a":
		if err := arity(1); err != nil {
			return nil, err
		}
		return Fig1a(), nil
	case "fig1b":
		if err := arity(1); err != nil {
			return nil, err
		}
		return Fig1b(), nil
	case "fig1b-analog":
		if err := arity(1); err != nil {
			return nil, err
		}
		return Fig1bAnalog(), nil
	case "circulant":
		if err := arity(3); err != nil {
			return nil, err
		}
		n, err := order(1)
		if err != nil {
			return nil, err
		}
		var offsets []int
		for _, s := range strings.Split(parts[2], ",") {
			d, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("graph: spec %q: bad offset %q", spec, s)
			}
			offsets = append(offsets, d)
		}
		return Circulant(n, offsets...), nil
	case "random":
		if err := arity(4); err != nil {
			return nil, err
		}
		n, err := order(1)
		if err != nil {
			return nil, err
		}
		p, err := strconv.ParseFloat(parts[2], 64)
		// Written as !(0 <= p <= 1) so NaN is rejected too.
		if err != nil || !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("graph: spec %q: probability %q outside [0,1]", spec, parts[2])
		}
		seed, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: spec %q: bad seed", spec)
		}
		return RandomDigraph(n, p, seed), nil
	case "torus":
		if err := arity(3); err != nil {
			return nil, err
		}
		rows, err1 := strconv.Atoi(parts[1])
		cols, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || rows < 2 || cols < 2 {
			return nil, fmt.Errorf("graph: spec %q: torus sides must be integers >= 2", spec)
		}
		// Bound each side before multiplying: the product of two huge sides
		// overflows int and could wrap past the MaxNodes guard.
		if rows > MaxNodes || cols > MaxNodes || rows*cols > MaxNodes {
			return nil, fmt.Errorf("graph: spec %q: order exceeds %d", spec, MaxNodes)
		}
		return Torus(rows, cols), nil
	case "kregular":
		if err := arity(4); err != nil {
			return nil, err
		}
		n, err := order(1)
		if err != nil {
			return nil, err
		}
		k, err := strconv.Atoi(parts[2])
		if err != nil || k < 1 || k >= n {
			return nil, fmt.Errorf("graph: spec %q: out-degree must be in [1,%d]", spec, n-1)
		}
		seed, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: spec %q: bad seed", spec)
		}
		return KRegular(n, k, seed), nil
	case "expander":
		if err := arity(4); err != nil {
			return nil, err
		}
		n, err := order(1)
		if err != nil {
			return nil, err
		}
		d, err := strconv.Atoi(parts[2])
		// d < n/2 keeps the permutation-repair construction comfortably away
		// from the dense regime where placements can fail.
		if err != nil || d < 1 || d >= (n+1)/2 {
			return nil, fmt.Errorf("graph: spec %q: degree must be in [1,%d]", spec, (n+1)/2-1)
		}
		seed, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: spec %q: bad seed", spec)
		}
		return Expander(n, d, seed), nil
	default:
		return nil, fmt.Errorf("graph: unknown spec %q (known forms: clique:<n>, cycle:<n>, wheel:<k>, fig1a, fig1b, fig1b-analog, circulant:<n>:<offsets>, random:<n>:<p>:<seed>, torus:<rows>:<cols>, kregular:<n>:<k>:<seed>, expander:<n>:<d>:<seed>)", spec)
	}
}

// namedCache holds the graphs SharedNamed hands out, keyed by spec.
var namedCache weakcache.Cache[string, Graph]

// SharedNamed is Named shared by every caller with the same spec: the graph
// is built once while any caller holds it, and the most recently used one
// besides (see weakcache), so back-to-back runs of one scenario build it
// once. The graph is shared: it must not be edited — Clone it first. A bad
// spec returns Named's error and caches nothing.
func SharedNamed(spec string) (*Graph, error) {
	return namedCache.GetErr(spec, func() (*Graph, error) { return Named(spec) })
}
