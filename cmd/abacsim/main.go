// Command abacsim runs one of the repository's consensus protocols on a
// chosen graph under a chosen adversary and schedule, and reports outputs,
// agreement spread, validity and message accounting. Flag runs and scenario
// files share one path: the flags are compiled into a repro.Scenario, so
// everything the CLI can do, a JSON scenario can express — and replay.
//
// Usage:
//
//	abacsim -graph fig1a -algo bw -f 1 -eps 0.25 -inputs 0,4,1,3,2 -fault 2:silent
//	abacsim -graph clique:4 -algo aad -inputs 0,1,2,3
//	abacsim -graph circulant:5:1,2 -algo crashapprox -fault 4:crash:after=10
//	abacsim -graph fig1a -algo bw -fault "1:crash:after=8,finalSends=2+noise:amp=25"  # composed adversary
//	abacsim -graph fig1b-analog -algo iterative -inputs 0,0,0,0,1,1,1,1
//	abacsim -graph clique:3 -algo necessity -f 1
//	abacsim -graph fig1a -algo bw -seeds 32 -workers 8   # parallel seed sweep
//	abacsim -graph fig1a -algo bw -policy lifo           # adversarial schedule
//	abacsim -graph fig1a -algo bw -policy bounded:bound=8
//	abacsim -graph fig1a -algo bw -runtime loopback      # live node cluster, in-process
//	abacsim -graph fig1a -algo bw -runtime tcp           # live node cluster, real sockets
//	abacsim -scenario run.json                           # declarative run spec
//	abacsim -scenario run.json -save                     # print canonical JSON
//	abacsim -graph fig1a -algo bw -emit jsonl            # stream events as JSONL
//	abacsim -list                                        # registered names
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"

	"repro"
	"repro/internal/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "abacsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		spec     = flag.String("graph", "fig1a", "graph spec (see -list)")
		algo     = flag.String("algo", "bw", "protocol (see -list) or: necessity")
		f        = flag.Int("f", 1, "fault bound")
		k        = flag.Float64("k", 0, "a-priori input range bound (default: max |input|)")
		eps      = flag.Float64("eps", 0.1, "agreement parameter")
		seed     = flag.Int64("seed", 1, "asynchrony schedule seed")
		inputs   = flag.String("inputs", "", "comma-separated inputs (default: i mod 4)")
		faults   = flag.String("fault", "", "semicolon-separated faults: node:kind[:key=val,...] (kinds and params: see -list)")
		rounds   = flag.Int("rounds", 0, "round override for the iterative baseline")
		history  = flag.Bool("history", false, "print per-round value histories")
		policy   = flag.String("policy", "", "delivery policy name[:key=val,...], e.g. lifo or bounded:bound=8 (see -list)")
		seeds    = flag.Int("seeds", 0, "run this many consecutive seeds (a seed sweep when > 1)")
		workers  = flag.Int("workers", 0, "worker pool size for seed sweeps (0 = one per CPU, 1 = sequential)")
		scenario = flag.String("scenario", "", "run a JSON scenario file instead of assembling one from flags")
		save     = flag.Bool("save", false, "print the run's canonical scenario JSON instead of executing it")
		emit     = flag.String("emit", "", "stream execution events to stdout: jsonl")
		runtime  = flag.String("runtime", "", "execution runtime: sim (default, deterministic simulator) | loopback | tcp (live node cluster; see -list)")
		list     = flag.Bool("list", false, "list registered protocols, policies, runtimes, fault kinds and graph specs")
	)
	flag.Parse()

	if *list {
		printCatalog()
		return nil
	}
	if *emit != "" && *emit != "jsonl" {
		return fmt.Errorf("unknown -emit format %q (valid values are: [jsonl])", *emit)
	}
	if *runtime != "" {
		if err := validateName("runtime", *runtime, repro.RuntimeNames()); err != nil {
			return err
		}
	}

	// An interrupt cancels cluster runs immediately and seed sweeps between
	// runs, instead of leaving them unkillable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var s *repro.Scenario
	if *scenario != "" {
		data, err := os.ReadFile(*scenario)
		if err != nil {
			return err
		}
		if s, err = repro.ParseScenario(data); err != nil {
			return err
		}
		if err := applyOverrides(s, *seed, *seeds); err != nil {
			return err
		}
	} else {
		if *algo == "necessity" {
			if *seeds > 1 || *policy != "" || *emit != "" || *runtime != "" {
				return fmt.Errorf("-seeds, -policy, -emit and -runtime do not apply to -algo necessity")
			}
			if *f < 0 {
				return fmt.Errorf("-f %d: -algo necessity needs a fault bound >= 0", *f)
			}
			g, err := repro.NamedGraph(*spec)
			if err != nil {
				return err
			}
			res, err := repro.RunNecessity(g, *f, maxf(*k, 1), *eps, *seed)
			if err != nil {
				return err
			}
			fmt.Println(res)
			return nil
		}
		var err error
		if s, err = buildScenario(*spec, *algo, *f, *k, *eps, *seed, *seeds,
			*inputs, *faults, *rounds, *policy); err != nil {
			return err
		}
	}

	if *save {
		data, err := s.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	if s.Seeds > 1 {
		if *emit != "" {
			return fmt.Errorf("-emit applies to single runs, not seed sweeps")
		}
		if *runtime != "" && *runtime != repro.RuntimeSim {
			return fmt.Errorf("-runtime %s executes single runs; seed sweeps run on the simulator (drop -seeds or -runtime)", *runtime)
		}
		return runSeedSweep(ctx, *s, *workers)
	}
	return runSingle(ctx, *s, *runtime, *emit == "jsonl", *history)
}

// applyOverrides lets explicitly passed -seed/-seeds flags override the
// corresponding scenario-file fields, so one file serves many seeds. Any
// other run-shaping flag passed alongside -scenario is an error: silently
// ignoring, say, -policy would replay the wrong schedule.
func applyOverrides(s *repro.Scenario, seed int64, seeds int) error {
	var clash []string
	flag.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "seed":
			s.Seed = seed
		case "seeds":
			s.Seeds = seeds
		case "graph", "algo", "f", "k", "eps", "inputs", "fault", "rounds", "policy":
			clash = append(clash, "-"+fl.Name)
		}
	})
	if len(clash) > 0 {
		return fmt.Errorf("%s cannot be combined with -scenario: edit the file instead (only -seed and -seeds override it)",
			strings.Join(clash, ", "))
	}
	return nil
}

// buildScenario compiles the imperative flags into a declarative Scenario.
// The closing Validate checks every name eagerly — protocol, graph,
// policy, fault kinds — so errors carry the valid values instead of
// surfacing from deep inside the simulator.
func buildScenario(spec, algo string, f int, k, eps float64, seed int64, seeds int,
	inputs, faults string, rounds int, policy string) (*repro.Scenario, error) {
	if algo == "crash" {
		algo = "crashapprox" // legacy alias from earlier releases
	}
	if f == 0 {
		f = repro.FZero // the flag's default is 1, so this zero was asked for
	}
	s := &repro.Scenario{
		Graph: spec, Protocol: algo,
		F: f, K: k, Eps: eps, Seed: seed, Seeds: seeds, Rounds: rounds,
	}
	var err error
	if s.Policy, err = parsePolicy(policy); err != nil {
		return nil, err
	}
	if inputs != "" {
		g, err := repro.NamedGraph(spec)
		if err != nil {
			return nil, err
		}
		if s.Inputs, err = parseInputs(inputs, g.N()); err != nil {
			return nil, err
		}
	}
	fl, err := parseFaults(faults)
	if err != nil {
		return nil, err
	}
	s.Faults = faultSpecs(fl)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func validateName(what, name string, valid []string) error {
	for _, v := range valid {
		if name == v {
			return nil
		}
	}
	return fmt.Errorf("unknown %s %q (valid values are: %v)", what, name, valid)
}

// parsePolicy parses "name" or "name:key=val,key=val" into a PolicySpec,
// validating the name and params against the registry.
func parsePolicy(s string) (*repro.PolicySpec, error) {
	if s == "" {
		return nil, nil
	}
	name, rest, hasParams := strings.Cut(s, ":")
	if err := validateName("policy", name, repro.Policies()); err != nil {
		return nil, err
	}
	spec := &repro.PolicySpec{Name: name}
	if hasParams {
		spec.Params = map[string]float64{}
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("policy param %q: want key=value", kv)
			}
			x, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("policy param %q: bad value: %w", kv, err)
			}
			spec.Params[strings.TrimSpace(key)] = x
		}
	}
	return spec, nil
}

// faultSpecs converts the parsed fault map to the scenario list form, in
// node order.
func faultSpecs(fl map[int]repro.FaultSpec) []repro.FaultSpec {
	if len(fl) == 0 {
		return nil
	}
	nodes := make([]int, 0, len(fl))
	for node := range fl {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	out := make([]repro.FaultSpec, 0, len(fl))
	for _, node := range nodes {
		out = append(out, fl[node])
	}
	return out
}

func printCatalog() {
	fmt.Println("protocols:")
	for _, info := range repro.ProtocolCatalog() {
		fmt.Printf("  %-13s [%s, %s decision]", info.Name, info.Tier, info.Shape)
		if info.Doc != "" {
			fmt.Printf(" %s", info.Doc)
		}
		fmt.Println()
	}
	fmt.Println("policies:")
	for _, name := range repro.Policies() {
		fmt.Printf("  %s\n", name)
	}
	fmt.Println("runtimes:")
	for _, name := range repro.RuntimeNames() {
		fmt.Printf("  %s\n", name)
	}
	fmt.Println("adversaries (fault kinds):")
	for _, name := range repro.FaultKinds() {
		defs, doc, _ := repro.FaultDefaults(name)
		fmt.Printf("  %-13s %s\n", name, doc)
		if len(defs) > 0 {
			fmt.Printf("  %13s params: %s\n", "", renderParams(defs))
		}
	}
	fmt.Println("link fault kinds:")
	for _, name := range repro.LinkFaultKinds() {
		defs, doc, _ := repro.LinkFaultDefaults(name)
		fmt.Printf("  %-13s %s\n", name, doc)
		if len(defs) > 0 {
			fmt.Printf("  %13s params: %s\n", "", renderParams(defs))
		}
	}
	fmt.Println("graphs:")
	for _, form := range repro.NamedGraphSpecs() {
		fmt.Printf("  %s\n", form)
	}
}

// renderParams formats a params map as sorted key=value pairs ("none"
// when empty).
func renderParams(defs map[string]float64) string {
	if len(defs) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(defs))
	for k := range defs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%g", k, defs[k])
	}
	return strings.Join(parts, " ")
}

// runSingle executes one scenario on the selected runtime, optionally
// streaming events as JSONL before the summary.
func runSingle(ctx context.Context, s repro.Scenario, runtime string, jsonl, history bool) error {
	g, in, err := s.Materialize()
	if err != nil {
		return err
	}
	var res *repro.Result
	var obs repro.Observer
	flushErr := func() error { return nil }
	if jsonl {
		obs, flushErr = repro.JSONLObserver(os.Stdout)
	}
	if res, err = s.RunOnObserved(ctx, runtime, obs); err != nil {
		return err
	}
	if err := flushErr(); err != nil {
		return err
	}

	policy := "random"
	if s.Policy != nil {
		policy = s.Policy.Name
	}
	if runtime == "" {
		runtime = repro.RuntimeSim
	}
	fmt.Printf("graph: %s, algo: %s, f=%d, eps=%g, seed=%d, policy=%s, runtime=%s\n",
		g, s.Protocol, orDefault(s.F, 1), orDefaultF(s.Eps, 0.1), s.Seed, policy, runtime)
	fmt.Printf("inputs: %v\n", in)
	ids := make([]int, 0, len(res.Outputs))
	for id := range res.Outputs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Printf("  node %2d -> %.6g", id, res.Outputs[id])
		if vec, ok := res.Vectors[id]; ok {
			origins := make([]int, 0, len(vec))
			for o := range vec {
				origins = append(origins, o)
			}
			sort.Ints(origins)
			fmt.Printf("  subset{")
			for i, o := range origins {
				if i > 0 {
					fmt.Printf(", ")
				}
				fmt.Printf("%d:%g", o, vec[o])
			}
			fmt.Printf("}")
		}
		fmt.Println()
	}
	fmt.Printf("decided: %v, spread: %.6g, converged(<%g): %v, validity: %v\n",
		res.Decided, res.Spread, orDefaultF(s.Eps, 0.1), res.Converged, res.ValidityOK)
	// Convergence is guaranteed only under 3-reach: check it while it costs at
	// most C(256, <=2) removal sets, under a second (torus:32:32 takes ~36 s).
	if f := orDefault(s.F, 1); !graph.SubsetsWithin(g.N(), 2*f, graph.CountSubsets(256, 2)) {
		fmt.Printf("3-reach(f=%d): not computed (order %d has too many removal sets for the summary; run graphcheck)\n", f, g.N())
	} else if ok, _ := repro.Check3Reach(g, f); ok {
		fmt.Printf("3-reach(f=%d): true\n", f)
	} else {
		fmt.Printf("3-reach(f=%d): false (outside the paper's condition: no convergence guarantee)\n", f)
	}
	fmt.Printf("deliveries: %d, sends: %d, by kind: %v\n", res.Steps, res.MessagesSent, res.ByKind)
	if ls := res.LinkStats; ls != (repro.LinkFaultStats{}) {
		fmt.Printf("link faults: dropped %d, duplicated %d, delayed %d\n", ls.Dropped, ls.Duplicated, ls.Delayed)
	}
	if history {
		for _, id := range ids {
			fmt.Printf("  history %2d: %v\n", id, res.Histories[id])
		}
	}
	return nil
}

// runSeedSweep executes the scenario across its consecutive seeds on a
// worker pool and prints one line per seed plus an aggregate.
func runSeedSweep(ctx context.Context, s repro.Scenario, workers int) error {
	results, err := s.RunBatch(ctx, workers)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s, algo: %s, f=%d, eps=%g, seeds=%d..%d, workers=%d\n",
		s.Graph, s.Protocol, orDefault(s.F, 1), orDefaultF(s.Eps, 0.1),
		s.Seed, s.Seed+int64(s.Seeds)-1, workers)
	converged, maxSpread, totalMsgs := 0, 0.0, 0
	for i, res := range results {
		if res.Converged {
			converged++
		}
		if res.Spread > maxSpread {
			maxSpread = res.Spread
		}
		totalMsgs += res.MessagesSent
		fmt.Printf("  seed %-6d converged=%-5v spread=%-10.6g validity=%-5v sends=%d\n",
			s.Seed+int64(i), res.Converged, res.Spread, res.ValidityOK, res.MessagesSent)
	}
	fmt.Printf("converged: %d/%d, max spread: %.6g, total sends: %d\n",
		converged, s.Seeds, maxSpread, totalMsgs)
	return nil
}

// orDefault resolves the displayed fault bound: 0 means the default,
// repro.FZero means an explicit zero.
func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	if v == repro.FZero {
		return 0
	}
	return v
}

func orDefaultF(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

func parseInputs(s string, n int) ([]float64, error) {
	out := make([]float64, n)
	if s == "" {
		for i := range out {
			out[i] = float64(i % 4)
		}
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("%d inputs for %d nodes", len(parts), n)
	}
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("input %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}

// parseFaults parses the -fault grammar: semicolon-separated items, each
//
//	node:kind                       registered defaults
//	node:kind:key=val,key=val       named params
//	node:kind[:args]+kind[:args]    composed mutator layers
func parseFaults(s string) (map[int]repro.FaultSpec, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[int]repro.FaultSpec)
	for _, item := range strings.Split(s, ";") {
		layers := splitLayers(strings.TrimSpace(item))
		head := strings.SplitN(layers[0], ":", 3)
		if len(head) < 2 {
			return nil, fmt.Errorf("fault %q: want node:kind[:key=val,...][+kind[:...]]", item)
		}
		node, err := strconv.Atoi(head[0])
		if err != nil {
			return nil, fmt.Errorf("fault %q: bad node: %w", item, err)
		}
		// Unknown kinds fail here, at flag-parse time, in every argument
		// form — the same eager UX as -policy.
		defs, _, err := repro.FaultDefaults(head[1])
		if err != nil {
			return nil, fmt.Errorf("fault %q: %w", item, err)
		}
		fl := repro.FaultSpec{Node: node, Kind: head[1]}
		if len(head) > 2 {
			if fl.Params, err = parseFaultParams(defs, head[2]); err != nil {
				return nil, fmt.Errorf("fault %q: %w", item, err)
			}
		}
		for _, layer := range layers[1:] {
			kind, args, hasArgs := strings.Cut(layer, ":")
			defs, _, err := repro.FaultDefaults(kind)
			if err != nil {
				return nil, fmt.Errorf("fault %q: %w", item, err)
			}
			m := repro.Mutation{Kind: kind}
			if hasArgs {
				if m.Params, err = parseFaultParams(defs, args); err != nil {
					return nil, fmt.Errorf("fault %q: %w", item, err)
				}
			}
			fl.Compose = append(fl.Compose, m)
		}
		if _, dup := out[node]; dup {
			return nil, fmt.Errorf("fault %q: node %d has two fault entries", item, node)
		}
		out[node] = fl
	}
	return out, nil
}

// splitLayers splits one -fault item into its composed layers: a "+" only
// separates layers when it introduces a strategy name (the next rune is a
// letter), so exponent notation inside values — 1:extreme:value=1e+9,
// amp=2.5e+3 — stays intact.
func splitLayers(item string) []string {
	var out []string
	start := 0
	for i := 0; i < len(item); i++ {
		if item[i] == '+' && i+1 < len(item) &&
			(item[i+1] >= 'a' && item[i+1] <= 'z' || item[i+1] >= 'A' && item[i+1] <= 'Z') {
			out = append(out, item[start:i])
			start = i + 1
		}
	}
	return append(out, item[start:])
}

// parseFaultParams parses one layer's key=val list; defs (the kind's
// registered params) only words the error for a bare value.
func parseFaultParams(defs map[string]float64, args string) (map[string]float64, error) {
	params := map[string]float64{}
	for _, kv := range strings.Split(args, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("fault param %q: want key=value (the kind's params: %s)", kv, renderParams(defs))
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("fault param %q: bad value: %w", kv, err)
		}
		params[strings.TrimSpace(key)] = x
	}
	return params, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
