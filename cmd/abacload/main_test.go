package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/service"
)

// fleet deploys an in-process clique:4 acs fleet with client planes and
// returns their addresses — the external fleet abacload is pointed at.
func fleet(t *testing.T) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	dep, err := service.Deploy(ctx, service.DeployConfig{
		Scenario: repro.Scenario{
			Graph: "clique:4", Protocol: "acs",
			Inputs: []float64{2.5, 2.5, 2.5, 2.5}, F: 1, Seed: 7,
		},
		WithClients: true,
		Linger:      200 * time.Millisecond,
	})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		dep.Close()
		cancel()
	})
	return dep.ClientAddrs
}

// TestDriveHealthyFleet: a short window against a live fleet decides
// instances with no worker error and nothing shed, and is not a failure.
func TestDriveHealthyFleet(t *testing.T) {
	addrs := fleet(t)
	row, err := drive(context.Background(), addrs, "acs", 300*time.Millisecond, 2*len(addrs))
	if err != nil {
		t.Fatal(err)
	}
	if row.Decisions == 0 || row.Errors != 0 || row.QueueShed != 0 {
		t.Fatalf("row = %+v, want decisions > 0, errors == 0, queueShed == 0", row)
	}
	if err := row.failure(); err != nil {
		t.Fatalf("healthy window reported as failure: %v", err)
	}
}

// TestRunFailsOnWorkerErrors: a window in which every worker's submit is
// refused (a protocol the fleet does not serve) still prints its row, and
// the run must end non-zero instead of reporting zero decisions as success.
func TestRunFailsOnWorkerErrors(t *testing.T) {
	addrs := fleet(t)
	var out bytes.Buffer
	err := run([]string{"-addrs", strings.Join(addrs, ","), "-protocols", "nosuch", "-duration", "300ms"}, &out)
	var row loadRow
	if jerr := json.Unmarshal(out.Bytes(), &row); jerr != nil {
		t.Fatalf("no row printed before the verdict: %v (output %q)", jerr, out.String())
	}
	if row.Decisions != 0 || row.Errors == 0 {
		t.Fatalf("row = %+v, want zero decisions and worker errors", row)
	}
	if err == nil {
		t.Fatal("run returned nil for a window with worker errors and zero decisions")
	}
}

// TestRunFailsOnClosedPort: a fleet that is not there is an error, not an
// empty success.
func TestRunFailsOnClosedPort(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	var out bytes.Buffer
	if err := run([]string{"-addrs", addr, "-duration", "100ms"}, &out); err == nil {
		t.Fatalf("run against closed port %s returned nil (output %q)", addr, out.String())
	}
}
