package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

func testScenario() repro.Scenario {
	return repro.Scenario{
		Graph:    "clique:4",
		Protocol: "acs",
		Inputs:   []float64{2.5, 2.5, 2.5, 2.5},
		F:        1,
		Seed:     7,
	}
}

func deploy(t *testing.T, cfg DeployConfig) (*Deployment, context.Context) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	if cfg.Linger == 0 {
		cfg.Linger = 200 * time.Millisecond
	}
	dep, err := Deploy(ctx, cfg)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		dep.Close()
		cancel()
	})
	return dep, ctx
}

// TestServiceConformance pins the service tier to the simulator: a
// pipelined ACS instance must decide exactly the value the equivalent
// single-shot sim run decides (equal inputs make the subset mean
// schedule-independent), and every daemon must agree on the vector.
func TestServiceConformance(t *testing.T) {
	s := testScenario()
	simRes, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !simRes.Decided {
		t.Fatal("sim run did not decide")
	}
	var simValue float64
	for _, x := range simRes.Outputs {
		simValue = x
		break
	}

	dep, _ := deploy(t, DeployConfig{Scenario: s})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	inst, err := dep.Daemons[0].Submit("")
	if err != nil {
		t.Fatal(err)
	}
	var ref *Decision
	for i, d := range dep.Daemons {
		dec, err := d.Wait(ctx, inst)
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		if dec.Value != simValue {
			t.Fatalf("daemon %d decided %v, sim run decided %v", i, dec.Value, simValue)
		}
		if dec.Protocol != "acs" {
			t.Fatalf("daemon %d decision carries protocol %q", i, dec.Protocol)
		}
		if ref == nil {
			ref = &dec
			continue
		}
		if len(dec.Vector) != len(ref.Vector) {
			t.Fatalf("daemon %d vector %v != daemon 0 vector %v", i, dec.Vector, ref.Vector)
		}
		for k, v := range ref.Vector {
			if dec.Vector[k] != v {
				t.Fatalf("daemon %d vector %v != daemon 0 vector %v", i, dec.Vector, ref.Vector)
			}
		}
	}
}

// TestServicePipelined drives several concurrent instances across two
// protocols through one fleet: all must decide, and the counters must add
// up.
func TestServicePipelined(t *testing.T) {
	s := testScenario()
	dep, _ := deploy(t, DeployConfig{Scenario: s, Protocols: []string{"acs", "bw"}})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const perDaemon = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(dep.Daemons)*perDaemon)
	for di, d := range dep.Daemons {
		for j := 0; j < perDaemon; j++ {
			proto := "acs"
			if (di+j)%2 == 1 {
				proto = "bw"
			}
			wg.Add(1)
			go func(d *Daemon, proto string) {
				defer wg.Done()
				dec, err := d.SubmitWait(ctx, proto)
				if err != nil {
					errs <- err
					return
				}
				if proto == "bw" && math.Abs(dec.Value-2.5) > 0.1 {
					errs <- fmt.Errorf("bw decided %v, want ~2.5", dec.Value)
				}
				if proto == "acs" && dec.Value != 2.5 {
					errs <- fmt.Errorf("acs decided %v, want 2.5", dec.Value)
				}
			}(d, proto)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := int64(len(dep.Daemons) * perDaemon)
	var submitted int64
	for _, d := range dep.Daemons {
		snap := d.Snapshot()
		submitted += snap.Submitted
		if snap.Opened < snap.Submitted {
			t.Fatalf("daemon %d opened %d < submitted %d", d.ID(), snap.Opened, snap.Submitted)
		}
		if snap.Queue.Enqueued == 0 {
			t.Fatalf("daemon %d moved no frames", d.ID())
		}
	}
	if submitted != total {
		t.Fatalf("fleet submitted %d, want %d", submitted, total)
	}
	// Every daemon decides every instance locally: n * total decisions.
	// SubmitWait only proves the submitting vertex decided, so the other
	// daemons' machines may still be finishing — poll up to the deadline.
	want := total * int64(len(dep.Daemons))
	for {
		var decided int64
		for _, d := range dep.Daemons {
			decided += d.Snapshot().Decided
		}
		if decided == want {
			return
		}
		if decided > want {
			t.Fatalf("fleet recorded %d decisions, want %d", decided, want)
		}
		select {
		case <-ctx.Done():
			t.Fatalf("fleet recorded %d decisions, want %d", decided, want)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestServiceClientPlane exercises the JSON-lines plane end to end:
// submit on one daemon's client port, wait on another's, stats on a third.
func TestServiceClientPlane(t *testing.T) {
	s := testScenario()
	dep, _ := deploy(t, DeployConfig{Scenario: s, WithClients: true})

	c0, err := Dial(dep.ClientAddrs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	inst, err := c0.Submit("acs")
	if err != nil {
		t.Fatal(err)
	}
	if inst&(1<<10-1) != 0 {
		t.Fatalf("instance %d not allocated by daemon 0", inst)
	}

	c2, err := Dial(dep.ClientAddrs[2], 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	dec, err := c2.Wait(inst)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Value != 2.5 {
		t.Fatalf("client wait returned %v, want 2.5", dec.Value)
	}

	dec2, err := c0.SubmitWait("")
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Value != 2.5 {
		t.Fatalf("submitwait returned %v, want 2.5", dec2.Value)
	}

	stats, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ID != 2 || stats.Decided < 1 {
		t.Fatalf("stats = %+v; want id 2 with decisions", stats)
	}
}

// TestServiceMetricsPlane checks /metrics and /healthz, including the
// drain flip to 503.
func TestServiceMetricsPlane(t *testing.T) {
	s := testScenario()
	dep, _ := deploy(t, DeployConfig{Scenario: s, WithHTTP: true})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := dep.Daemons[0].SubmitWait(ctx, ""); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + dep.HTTPAddrs[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.ID != 0 || snap.Decided < 1 || snap.Queue.Enqueued == 0 {
		t.Fatalf("metrics snapshot = %+v; want id 0 with decisions and traffic", snap)
	}

	if resp, err = http.Get("http://" + dep.HTTPAddrs[0] + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	dep.Daemons[0].BeginDrain()
	if resp, err = http.Get("http://" + dep.HTTPAddrs[0] + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
}

// TestServicePprofPlane: the Pprof knob mounts /debug/pprof on the
// observability plane; without it the endpoint stays absent (the default
// plane exposes nothing an operator did not ask for).
func TestServicePprofPlane(t *testing.T) {
	s := testScenario()
	on, _ := deploy(t, DeployConfig{Scenario: s, WithHTTP: true, Pprof: true})
	resp, err := http.Get("http://" + on.HTTPAddrs[0] + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index with Pprof on = %d, want 200", resp.StatusCode)
	}

	off, _ := deploy(t, DeployConfig{Scenario: s, WithHTTP: true})
	if resp, err = http.Get("http://" + off.HTTPAddrs[0] + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof index with Pprof off = %d, want 404", resp.StatusCode)
	}
}

// TestServiceDrain: drain refuses new submits, in-flight instances decide,
// Shutdown returns cleanly.
func TestServiceDrain(t *testing.T) {
	s := testScenario()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dep, err := Deploy(ctx, DeployConfig{Scenario: s, Linger: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	inst, err := dep.Daemons[1].Submit("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Daemons[1].Wait(wctx, inst); err != nil {
		t.Fatal(err)
	}

	dep.Daemons[0].BeginDrain()
	if _, err := dep.Daemons[0].Submit(""); err == nil {
		t.Fatal("draining daemon accepted a submit")
	}
	if err := dep.Shutdown(wctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	for i, d := range dep.Daemons {
		if !d.Drained() {
			t.Fatalf("daemon %d still has instances after shutdown", i)
		}
	}
}

// TestServiceLateDaemon starts one daemon only after instances are already
// in flight: the mux dial retry plus the pending-frame buffer must let the
// latecomer catch up and decide.
func TestServiceLateDaemon(t *testing.T) {
	s := testScenario()
	g, _, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ls := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range ls {
		if ls[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addrs[i] = ls[i].Addr().String()
	}
	late := n - 1
	// The late vertex's listener must not accept while it is "down";
	// closing it frees the port for the late rebind. (A small race window
	// on the port is possible; skip if the rebind loses it.)
	ls[late].Close()

	mk := func(i int, l net.Listener) *Daemon {
		peers := make(map[int]string)
		for _, v := range g.Out(i) {
			peers[v] = addrs[v]
		}
		d, err := New(Config{
			ID: i, Scenario: s, PeerListener: l, Peers: peers,
			Linger: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.Start(ctx)
		t.Cleanup(d.Close)
		return d
	}
	daemons := make([]*Daemon, n)
	for i := 0; i < n; i++ {
		if i != late {
			daemons[i] = mk(i, ls[i])
		}
	}

	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	inst, err := daemons[0].Submit("")
	if err != nil {
		t.Fatal(err)
	}
	// With f=1 the other three decide without the late vertex.
	if _, err := daemons[0].Wait(wctx, inst); err != nil {
		t.Fatal(err)
	}

	lateL, err := net.Listen("tcp", addrs[late])
	if err != nil {
		t.Skipf("late rebind of %s lost the port: %v", addrs[late], err)
	}
	daemons[late] = mk(late, lateL)
	dec, err := daemons[late].Wait(wctx, inst)
	if err != nil {
		t.Fatalf("late daemon never decided: %v", err)
	}
	if dec.Value != 2.5 {
		t.Fatalf("late daemon decided %v, want 2.5", dec.Value)
	}
}

// TestServiceHonoursLinkFaults: a fleet enforces the scenario's link-fault
// rules on protocol frames, as the simulator and the one-shot runtimes do.
// With vertex 0 partitioned away, daemons 1–3 decide one common subset
// without origin 0, and daemon 0 — which still hears the OPEN flood, the
// service's own control plane — opens the instance and never decides it.
func TestServiceHonoursLinkFaults(t *testing.T) {
	s := testScenario()
	s.Inputs = []float64{1, 2, 3, 4}
	s.LinkFaults = []repro.LinkFault{{Kind: "partition", Nodes: []int{0}}}
	dep, _ := deploy(t, DeployConfig{Scenario: s})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	inst, err := dep.Daemons[1].Submit("")
	if err != nil {
		t.Fatal(err)
	}
	var ref Decision
	for i := 1; i < len(dep.Daemons); i++ {
		dec, err := dep.Daemons[i].Wait(ctx, inst)
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		if _, has := dec.Vector[0]; has || len(dec.Vector) != 3 {
			t.Fatalf("daemon %d subset %v, want origins 1, 2, 3", i, dec.Vector)
		}
		if i == 1 {
			ref = dec
		} else if fmt.Sprint(dec.Vector) != fmt.Sprint(ref.Vector) || dec.Value != ref.Value {
			t.Fatalf("daemon %d decided %v %v, daemon 1 decided %v %v", i, dec.Value, dec.Vector, ref.Value, ref.Vector)
		}
	}
	// The other three linger, retire, and leave daemon 0 where it was.
	settled := func() bool {
		for _, d := range dep.Daemons[1:] {
			if d.Snapshot().Retired < 1 {
				return false
			}
		}
		return dep.Daemons[0].Snapshot().Opened == 1
	}
	for !settled() {
		select {
		case <-ctx.Done():
			t.Fatal("daemons 1-3 did not retire the instance, or daemon 0 never opened it")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if snap := dep.Daemons[0].Snapshot(); snap.Decided != 0 || snap.Active != 1 {
		t.Fatalf("partitioned daemon 0: decided %d, active %d; want 0 and 1", snap.Decided, snap.Active)
	}
}

// TestServiceNewRejects: a daemon refuses at construction, by name, the
// scenario knobs that only mean something on the simulator, and the
// identity and addressing mistakes a multi-process member can make.
func TestServiceNewRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		set    func(*Config)
		errHas string
	}{
		{"policy", func(c *Config) { c.Scenario.Policy = &repro.PolicySpec{Name: "fifo"} }, "policy"},
		{"recordTrace", func(c *Config) { c.Scenario.RecordTrace = true }, "recordTrace"},
		{"seeds", func(c *Config) { c.Scenario.Seeds = 3 }, "seed batches"},
		{"id outside graph", func(c *Config) { c.ID = 9 }, "outside graph order"},
		{"missing peer", func(c *Config) { delete(c.Peers, 2) }, "no peer address"},
		{"no protocol", func(c *Config) { c.Scenario.Protocol = "" }, "no protocols"},
	} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{ID: 0, Scenario: testScenario(), PeerListener: l, Peers: map[int]string{1: "x", 2: "x", 3: "x"}}
		tc.set(&cfg)
		_, err = New(cfg)
		l.Close()
		if err == nil || !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("%s: New returned %v, want an error containing %q", tc.name, err, tc.errHas)
		}
	}
}

// Submit starts an instance of protocol ("" = daemon default).
func (c *Client) Submit(protocol string) (uint64, error) {
	resp, err := c.roundTrip(clientRequest{Op: "submit", Protocol: protocol})
	return resp.Inst, err
}

// Wait blocks until the instance decides at the daemon's vertex.
func (c *Client) Wait(inst uint64) (Decision, error) {
	resp, err := c.roundTrip(clientRequest{Op: "wait", Inst: inst})
	if err != nil {
		return Decision{}, err
	}
	if resp.Decision == nil {
		return Decision{}, errors.New("service: wait response without a decision")
	}
	return *resp.Decision, nil
}

// ID returns the hosted vertex.
func (d *Daemon) ID() int { return d.cfg.ID }

// Shutdown drains every daemon concurrently; the first drain failure is
// returned (all daemons are torn down regardless).
func (dep *Deployment) Shutdown(ctx context.Context) error {
	var wg sync.WaitGroup
	errs := make([]error, len(dep.Daemons))
	for i, d := range dep.Daemons {
		if d == nil {
			continue
		}
		wg.Add(1)
		go func(i int, d *Daemon) {
			defer wg.Done()
			errs[i] = d.Shutdown(ctx)
		}(i, d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
