// Command abacload drives sustained load through a consensus-service
// fleet's client planes: closed-loop workers submit instances and wait for
// decisions, and the tool reports decisions/sec plus the fleet's
// backpressure accounting.
//
// Two modes:
//
//   - Against a running fleet (abacd processes): point -addrs at one or
//     more client planes.
//
//     $ abacload -addrs 127.0.0.1:8100,127.0.0.1:8101 -protocol acs \
//     -duration 5s -concurrency 16
//
//   - Self-hosted (-selfhost): spin up an in-process daemon fleet for the
//     scenario, drive it, and tear it down — the E16 throughput study.
//     With -bench, the result is written as a BENCH_5-schema report
//     (one cell per -protocols entry). Per-layer frame costs are the
//     repo benchmark's job (bench/README.md), not this tool's.
//
//     $ abacload -selfhost -protocols acs,bw -duration 3s -bench /tmp/b5.json
//
// Output (both modes) is one JSON line per measured protocol.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "abacload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addrsFlag    = flag.String("addrs", "", "comma-separated client-plane addresses of a running fleet")
		selfhost     = flag.Bool("selfhost", false, "spin up an in-process fleet instead of dialing -addrs")
		scenarioPath = flag.String("scenario", "", "scenario file for -selfhost (default: the built-in clique:8 service scenario)")
		protocolsF   = flag.String("protocols", "", "comma-separated protocols to measure (default: the scenario's / the daemon default)")
		duration     = flag.Duration("duration", 3*time.Second, "measurement window per protocol")
		concurrency  = flag.Int("concurrency", 0, "closed-loop workers (default: 2 per client plane)")
		benchOut     = flag.String("bench", "", "-selfhost only: write the result as a BENCH_5-schema report to this path")
	)
	flag.Parse()

	protocols := splitCSV(*protocolsF)
	ctx := context.Background()

	if *selfhost {
		cfg := experiments.ServiceBenchConfig{
			Protocols:   protocols,
			Duration:    *duration,
			Concurrency: *concurrency,
		}
		if *scenarioPath != "" {
			data, err := os.ReadFile(*scenarioPath)
			if err != nil {
				return err
			}
			s, err := repro.ParseScenario(data)
			if err != nil {
				return err
			}
			cfg.Scenario = *s
		}
		report, err := experiments.RunServiceBench(ctx, cfg)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		for _, cell := range report.Runs {
			if err := enc.Encode(cell); err != nil {
				return err
			}
		}
		if *benchOut != "" {
			buf, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*benchOut, append(buf, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "abacload: wrote %s\n", *benchOut)
		}
		return nil
	}

	if *benchOut != "" {
		return fmt.Errorf("-bench requires -selfhost (a fleet-external run cannot claim the committed bench schema)")
	}
	addrs := splitCSV(*addrsFlag)
	if len(addrs) == 0 {
		return fmt.Errorf("either -addrs or -selfhost is required")
	}
	if len(protocols) == 0 {
		protocols = []string{""} // daemon default
	}
	if *concurrency <= 0 {
		*concurrency = 2 * len(addrs)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, proto := range protocols {
		row, err := drive(ctx, addrs, proto, *duration, *concurrency)
		if err != nil {
			return err
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

// loadRow is one measured protocol window against an external fleet.
type loadRow struct {
	Protocol    string  `json:"protocol,omitempty"`
	DurationMS  float64 `json:"durationMs"`
	Decisions   int64   `json:"decisions"`
	PerSec      float64 `json:"perSec"`
	Workers     int     `json:"workers"`
	Errors      int64   `json:"errors,omitempty"`
	QueueWaits  int64   `json:"queueWaits"`
	QueueShed   int64   `json:"queueShed"`
	PendingShed int64   `json:"pendingShed"`
}

func drive(ctx context.Context, addrs []string, proto string, window time.Duration, workers int) (loadRow, error) {
	stats := func() (waits, shed, pend int64, err error) {
		for _, addr := range addrs {
			cl, err := service.Dial(addr, 0)
			if err != nil {
				return 0, 0, 0, err
			}
			s, err := cl.Stats()
			cl.Close()
			if err != nil {
				return 0, 0, 0, err
			}
			waits += s.Queue.Waits
			shed += s.Queue.Shed
			pend += s.PendingShed
		}
		return waits, shed, pend, nil
	}
	w0, s0, p0, err := stats()
	if err != nil {
		return loadRow{}, err
	}

	wctx, cancel := context.WithTimeout(ctx, window)
	defer cancel()
	var decisions, errs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		addr := addrs[w%len(addrs)]
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			cl, err := service.Dial(addr, 0)
			if err != nil {
				errs.Add(1)
				return
			}
			defer cl.Close()
			go func() {
				<-wctx.Done()
				cl.Close()
			}()
			for wctx.Err() == nil {
				if _, err := cl.SubmitWait(proto); err != nil {
					if wctx.Err() == nil {
						errs.Add(1)
					}
					return
				}
				decisions.Add(1)
			}
		}(addr)
	}
	wg.Wait()
	elapsed := time.Since(start)

	w1, s1, p1, err := stats()
	if err != nil {
		return loadRow{}, err
	}
	row := loadRow{
		Protocol:    proto,
		DurationMS:  float64(elapsed) / float64(time.Millisecond),
		Decisions:   decisions.Load(),
		PerSec:      float64(decisions.Load()) / elapsed.Seconds(),
		Workers:     workers,
		Errors:      errs.Load(),
		QueueWaits:  w1 - w0,
		QueueShed:   s1 - s0,
		PendingShed: p1 - p0,
	}
	return row, nil
}

func splitCSV(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}
