package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// The client plane speaks JSON lines over TCP: one request object per
// line, one response object per line, strictly in order per connection.
// Ops: "submit" (start an instance, return its id), "wait" (block until an
// instance decides here), "submitwait" (both), "stats" (a Snapshot). A
// connection is a session; concurrent load comes from concurrent
// connections, which is what the load generator does.

// clientRequest is one line from a client.
type clientRequest struct {
	Op       string `json:"op"`
	Protocol string `json:"protocol,omitempty"`
	Inst     uint64 `json:"inst,omitempty"`
}

// clientResponse is one line back.
type clientResponse struct {
	OK       bool      `json:"ok"`
	Error    string    `json:"error,omitempty"`
	Inst     uint64    `json:"inst,omitempty"`
	Decision *Decision `json:"decision,omitempty"`
	Stats    *Snapshot `json:"stats,omitempty"`
}

// maxClientLine bounds one request line (requests are tiny; a huge line is
// a protocol violation, not a workload).
const maxClientLine = 1 << 16

func (d *Daemon) serveClients(l net.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return // listener closed: shutdown
		}
		d.wg.Add(1)
		go func(c net.Conn) {
			defer d.wg.Done()
			defer c.Close()
			go func() { // unblock reads when the daemon stops
				<-d.ctx.Done()
				c.Close()
			}()
			d.clientSession(c)
		}(c)
	}
}

func (d *Daemon) clientSession(c net.Conn) {
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 0, 4096), maxClientLine)
	enc := json.NewEncoder(c)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req clientRequest
		if err := json.Unmarshal(line, &req); err != nil {
			_ = enc.Encode(clientResponse{Error: fmt.Sprintf("bad request: %v", err)})
			continue
		}
		resp := d.handleClient(req)
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

func (d *Daemon) handleClient(req clientRequest) clientResponse {
	switch req.Op {
	case "submit":
		inst, err := d.Submit(req.Protocol)
		if err != nil {
			return clientResponse{Error: err.Error()}
		}
		return clientResponse{OK: true, Inst: inst}
	case "wait":
		dec, err := d.Wait(d.ctx, req.Inst)
		if err != nil {
			return clientResponse{Error: err.Error()}
		}
		return clientResponse{OK: true, Inst: req.Inst, Decision: &dec}
	case "submitwait":
		dec, err := d.SubmitWait(d.ctx, req.Protocol)
		if err != nil {
			return clientResponse{Error: err.Error()}
		}
		return clientResponse{OK: true, Inst: dec.Inst, Decision: &dec}
	case "stats":
		s := d.Snapshot()
		return clientResponse{OK: true, Stats: &s}
	default:
		return clientResponse{Error: fmt.Sprintf("unknown op %q (valid values are: submit, wait, submitwait, stats)", req.Op)}
	}
}

// Client is the Go face of the client plane: one connection, sequential
// requests. Use one Client per concurrent worker.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
}

// Dial connects to a daemon's client plane.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close ends the session.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(req clientRequest) (clientResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	buf, err := json.Marshal(req)
	if err != nil {
		return clientResponse{}, err
	}
	buf = append(buf, '\n')
	if _, err := c.conn.Write(buf); err != nil {
		return clientResponse{}, err
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return clientResponse{}, err
	}
	var resp clientResponse
	if err := json.Unmarshal(line, &resp); err != nil {
		return clientResponse{}, err
	}
	if !resp.OK {
		if resp.Error == "" {
			resp.Error = "request failed"
		}
		return resp, errors.New(resp.Error)
	}
	return resp, nil
}

// SubmitWait submits and blocks for the decision.
func (c *Client) SubmitWait(protocol string) (Decision, error) {
	resp, err := c.roundTrip(clientRequest{Op: "submitwait", Protocol: protocol})
	if err != nil {
		return Decision{}, err
	}
	if resp.Decision == nil {
		return Decision{}, errors.New("service: submitwait response without a decision")
	}
	return *resp.Decision, nil
}

// Stats fetches the daemon's Snapshot.
func (c *Client) Stats() (Snapshot, error) {
	resp, err := c.roundTrip(clientRequest{Op: "stats"})
	if err != nil {
		return Snapshot{}, err
	}
	if resp.Stats == nil {
		return Snapshot{}, errors.New("service: stats response without a snapshot")
	}
	return *resp.Stats, nil
}
