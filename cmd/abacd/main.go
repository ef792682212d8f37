// Command abacd runs ONE vertex of a scenario as a long-lived consensus
// daemon — consensus as a service, and the repository's one multi-process
// binary. It stays up, multiplexing any number of concurrent instances
// over persistent peer connections: clients submit instances on the
// JSON-lines client plane, every daemon of the fleet runs the instance's
// machine for its own vertex, and each reports the decision at its
// vertex. A single run is a fleet plus one submitwait. The scenario's
// faults and linkFaults are enforced on every instance; policy,
// recordTrace and seeds, which only mean something on the simulator, are
// refused at start.
//
// A four-terminal clique:4 fleet (see README for the full walkthrough):
//
//	terminal i$ abacd -scenario examples/service.json -id i \
//	              -peers "0=127.0.0.1:7100,1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103" \
//	              -client 127.0.0.1:810i -http 127.0.0.1:820i
//
// Then submit work with the load generator or by hand:
//
//	$ abacload -addrs 127.0.0.1:8100 -duration 2s
//	$ printf '{"op":"submitwait","protocol":"acs"}\n' | nc 127.0.0.1:8100
//	$ curl -s http://127.0.0.1:8200/metrics
//
// The first SIGINT/SIGTERM drains gracefully: new submits and peer
// announcements are refused (healthz flips to 503), in-flight instances
// finish, then the daemon exits. A second signal tears down immediately.
//
// Usage:
//
//	abacd -scenario run.json -id 0 -peers "0=host:port,1=host:port,..."
//	abacd ... -client host:port -http host:port   # client + metrics planes
//	abacd ... -protocols acs,bw                   # serve several protocols
//	abacd ... -queue-cap 4096 -linger 2s -drain-timeout 30s
//	abacd ... -http host:port -pprof              # /debug/pprof incl. mutex/block
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "abacd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scenarioPath = flag.String("scenario", "", "JSON scenario file shared by every daemon of the fleet (required)")
		id           = flag.Int("id", -1, "this daemon's vertex id (required)")
		peersFlag    = flag.String("peers", "", `comma-separated peer-plane addresses: "0=host:port,1=host:port,..." (required)`)
		listen       = flag.String("listen", "", "peer-plane bind override (default: this vertex's -peers entry)")
		clientAddr   = flag.String("client", "", "client-plane bind address (JSON lines; omit to disable)")
		httpAddr     = flag.String("http", "", "observability-plane bind address (/metrics, /healthz; omit to disable)")
		protocols    = flag.String("protocols", "", "comma-separated protocols to serve (default: the scenario's)")
		queueCap     = flag.Int("queue-cap", 0, "per-peer outbound queue bound (0 = default)")
		linger       = flag.Duration("linger", 0, "post-decision service window per instance (0 = default)")
		drainTO      = flag.Duration("drain-timeout", 0, "graceful-shutdown bound on in-flight instances (0 = default)")
		pprofFlag    = flag.Bool("pprof", false, "mount /debug/pprof on the -http plane and enable mutex/block profiling")
	)
	flag.Parse()

	if *scenarioPath == "" {
		return fmt.Errorf("-scenario is required")
	}
	if *id < 0 {
		return fmt.Errorf("-id is required (this daemon's vertex)")
	}
	peers, err := parsePeers(*peersFlag)
	if err != nil {
		return err
	}
	if len(peers) == 0 {
		return fmt.Errorf("-peers is required")
	}
	data, err := os.ReadFile(*scenarioPath)
	if err != nil {
		return err
	}
	s, err := repro.ParseScenario(data)
	if err != nil {
		return err
	}

	bind := *listen
	if bind == "" {
		var ok bool
		if bind, ok = peers[*id]; !ok {
			return fmt.Errorf("no -peers entry for own id %d and no -listen override", *id)
		}
	}
	peerL, err := net.Listen("tcp", bind)
	if err != nil {
		return fmt.Errorf("peer plane: %w", err)
	}
	cfg := service.Config{
		ID:           *id,
		Scenario:     *s,
		PeerListener: peerL,
		Peers:        peers,
		QueueCap:     *queueCap,
		Linger:       *linger,
		DrainTimeout: *drainTO,
		Pprof:        *pprofFlag,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if *protocols != "" {
		for _, p := range strings.Split(*protocols, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Protocols = append(cfg.Protocols, p)
			}
		}
	}
	if *clientAddr != "" {
		if cfg.ClientListener, err = net.Listen("tcp", *clientAddr); err != nil {
			return fmt.Errorf("client plane: %w", err)
		}
	}
	if *httpAddr != "" {
		if cfg.HTTPListener, err = net.Listen("tcp", *httpAddr); err != nil {
			return fmt.Errorf("observability plane: %w", err)
		}
	}

	d, err := service.New(cfg)
	if err != nil {
		return err
	}
	d.Start(context.Background())
	fmt.Fprintf(os.Stderr, "abacd: vertex %d serving %v on %s (client %s, http %s)\n",
		*id, d.Protocols(), peerL.Addr(), orOff(*clientAddr), orOff(*httpAddr))

	// First signal: drain. Second: immediate teardown.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	<-sigs
	fmt.Fprintf(os.Stderr, "abacd: vertex %d draining (signal again for immediate shutdown)\n", *id)
	drainCtx, cancel := context.WithCancel(context.Background())
	go func() {
		<-sigs
		fmt.Fprintf(os.Stderr, "abacd: vertex %d immediate shutdown\n", *id)
		cancel()
	}()
	err = d.Shutdown(drainCtx)
	cancel()
	snap := d.Snapshot()
	fmt.Fprintf(os.Stderr, "abacd: vertex %d exiting: %d submitted, %d opened, %d decided, %d shed\n",
		*id, snap.Submitted, snap.Opened, snap.Decided, snap.Queue.Shed+snap.PendingShed)
	if err != nil && drainCtx.Err() == nil {
		return err
	}
	return nil
}

func orOff(addr string) string {
	if addr == "" {
		return "off"
	}
	return addr
}

// parsePeers parses "0=host:port,1=host:port,..." into a vertex->address
// map, rejecting duplicates and malformed entries eagerly.
func parsePeers(s string) (map[int]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[int]string)
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		idStr, addr, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("peer %q: want id=host:port", item)
		}
		id, err := strconv.Atoi(strings.TrimSpace(idStr))
		if err != nil {
			return nil, fmt.Errorf("peer %q: bad vertex id: %w", item, err)
		}
		if id < 0 {
			return nil, fmt.Errorf("peer %q: vertex id must be non-negative", item)
		}
		addr = strings.TrimSpace(addr)
		if addr == "" {
			return nil, fmt.Errorf("peer %q: empty address", item)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("peer %q: vertex %d listed twice", item, id)
		}
		out[id] = addr
	}
	return out, nil
}
