// Command abacload drives sustained load through a running consensus-service
// fleet's client planes (abacd processes): closed-loop workers submit
// instances and wait for decisions, and the tool reports decisions/sec plus
// the fleet's backpressure accounting, one JSON line per measured protocol.
//
//	$ abacload -addrs 127.0.0.1:8100,127.0.0.1:8101 -protocols acs \
//	    -duration 5s -concurrency 16
//
// It exits non-zero when a window decides nothing or any worker fails.
// Self-hosted fleets, per-layer frame costs and performance claims are the
// repo benchmark's job (bench/README.md), not this tool's.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "abacload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("abacload", flag.ExitOnError)
	var (
		addrsFlag   = fs.String("addrs", "", "comma-separated client-plane addresses of a running fleet")
		protocolsF  = fs.String("protocols", "", "comma-separated protocols to measure (default: the daemon default)")
		duration    = fs.Duration("duration", 3*time.Second, "measurement window per protocol")
		concurrency = fs.Int("concurrency", 0, "closed-loop workers (default: 2 per client plane)")
	)
	fs.Parse(args) // ExitOnError: a bad flag never returns

	addrs := splitCSV(*addrsFlag)
	if len(addrs) == 0 {
		return fmt.Errorf("-addrs is required")
	}
	protocols := splitCSV(*protocolsF)
	if len(protocols) == 0 {
		protocols = []string{""} // daemon default
	}
	if *concurrency <= 0 {
		*concurrency = 2 * len(addrs)
	}
	enc := json.NewEncoder(stdout)
	for _, proto := range protocols {
		row, err := drive(context.Background(), addrs, proto, *duration, *concurrency)
		if err != nil {
			return err
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
		if err := row.failure(); err != nil {
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

// failure reports a window that must not pass for a healthy run: a worker
// that could not dial or submit, or no decision at all.
func (r loadRow) failure() error {
	if r.Errors > 0 || r.Decisions == 0 {
		return fmt.Errorf("protocol %q: %d decisions, %d worker errors", r.Protocol, r.Decisions, r.Errors)
	}
	return nil
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
