package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"strings"
	"testing"

	"chameleon/internal/wire"
)

// captureStderr runs fn with os.Stderr redirected to a pipe and returns what
// fn wrote to it.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = old }()
	fn()
	w.Close() //nolint:errcheck
	var buf bytes.Buffer
	buf.ReadFrom(r) //nolint:errcheck
	r.Close()       //nolint:errcheck
	return buf.String()
}

// TestPrintStatsUnreachable: the probe contract — an unreachable server must
// produce a non-zero exit and exactly one line on stderr, so callers can
// alarm on the code without parsing anything.
func TestPrintStatsUnreachable(t *testing.T) {
	// Grab a port, then close it: nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() //nolint:errcheck

	var code int
	out := captureStderr(t, func() { code = printStats(addr) })
	if code == 0 {
		t.Fatal("printStats on unreachable server returned 0")
	}
	if n := strings.Count(strings.TrimRight(out, "\n"), "\n") + 1; out == "" || n != 1 {
		t.Fatalf("stderr not exactly one line:\n%q", out)
	}
	if !strings.Contains(out, "unreachable") {
		t.Fatalf("stderr does not say unreachable: %q", out)
	}
}

// fakeStatsServer answers the wire protocol with a canned STATS reply (and OK
// for the ping Dial sends).
func fakeStatsServer(t *testing.T, reply wire.StatsReply) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() }) //nolint:errcheck
	doc, err := json.Marshal(reply)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close() //nolint:errcheck
				for {
					payload, err := wire.ReadFrame(nc, nil)
					if err != nil {
						return
					}
					req, err := wire.DecodeRequest(payload)
					if err != nil {
						return
					}
					res := &wire.Response{ID: req.ID, Op: req.Op, OK: true}
					if req.Op == wire.OpStats {
						res.Stats = doc
					}
					if _, err := nc.Write(wire.AppendResponse(nil, res)); err != nil {
						return
					}
				}
			}(nc)
		}
	}()
	return ln.Addr().String()
}

// TestPrintStatsDraining: a reachable server that reports draining still gets
// its JSON printed, but the exit code must be non-zero — a draining server is
// about to stop serving, and the probe's job is to say so.
func TestPrintStatsDraining(t *testing.T) {
	addr := fakeStatsServer(t, wire.StatsReply{State: "ok", Draining: true})
	var code int
	out := captureStderr(t, func() { code = printStats(addr) })
	if code == 0 {
		t.Fatal("printStats on draining server returned 0")
	}
	if !strings.Contains(out, "draining") {
		t.Fatalf("stderr does not say draining: %q", out)
	}
}

// TestPrintStatsHealthy: the zero exit is reserved for reachable and serving.
func TestPrintStatsHealthy(t *testing.T) {
	addr := fakeStatsServer(t, wire.StatsReply{State: "ok"})
	if code := printStats(addr); code != 0 {
		t.Fatalf("printStats on healthy server returned %d", code)
	}
}
