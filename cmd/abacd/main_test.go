package main

import (
	"strings"
	"testing"
)

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("0=127.0.0.1:7000, 1=127.0.0.1:7001,2=node2.local:9")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{0: "127.0.0.1:7000", 1: "127.0.0.1:7001", 2: "node2.local:9"}
	if len(peers) != len(want) {
		t.Fatalf("peers = %v", peers)
	}
	for id, addr := range want {
		if peers[id] != addr {
			t.Fatalf("peers[%d] = %q, want %q", id, peers[id], addr)
		}
	}
}

func TestParsePeersEmpty(t *testing.T) {
	peers, err := parsePeers("")
	if err != nil || peers != nil {
		t.Fatalf("empty: %v %v", peers, err)
	}
}

func TestParsePeersRejects(t *testing.T) {
	cases := []struct{ in, want string }{
		{"0:127.0.0.1:7000", "want id=host:port"},
		{"x=127.0.0.1:7000", "bad vertex id"},
		{"-1=127.0.0.1:7000", "non-negative"},
		{"0=", "empty address"},
		{"0=a:1,0=b:2", "listed twice"},
	}
	for _, tc := range cases {
		if _, err := parsePeers(tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parsePeers(%q): err = %v, want %q", tc.in, err, tc.want)
		}
	}
}
