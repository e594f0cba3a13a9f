package netfault

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// startEcho runs a line-less echo server and returns its address.
func startEcho(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c) //nolint:errcheck
			}()
		}
	}()
	return ln.Addr().String()
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func echoOnce(t *testing.T, c net.Conn, msg []byte) []byte {
	t.Helper()
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	return got
}

func TestProxyPassThrough(t *testing.T) {
	p, err := New(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	msg := []byte("hello through the proxy")
	if got := echoOnce(t, c, msg); !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q", got)
	}
}

// TestPartitionStallsAndHeals proves a partition blackholes an established
// connection (read times out, no error, no close) and that healing resumes
// the same connection with the stalled bytes intact — the exact behavior a
// heartbeat timeout plus reconnect-less recovery needs.
func TestPartitionStallsAndHeals(t *testing.T) {
	p, err := New(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	echoOnce(t, c, []byte("warm")) // established and proxied

	p.Partition(true)
	if _, err := c.Write([]byte("lost?")); err != nil {
		t.Fatalf("write into partition: %v", err)
	}
	buf := make([]byte, 5)
	c.SetReadDeadline(time.Now().Add(150 * time.Millisecond)) //nolint:errcheck
	if _, err := io.ReadFull(c, buf); err == nil {
		t.Fatal("read succeeded across a partition")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("want timeout, got %v", err)
	}

	p.Partition(false)
	c.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if string(buf) != "lost?" {
		t.Fatalf("healed read got %q", buf)
	}
}

// TestPartitionStrandsNewConns: a connection dialed during a partition
// handshakes (the kernel accepts) but never carries a byte, even after the
// partition heals — the dialer must give up and redial. The kernel completes
// the handshake before the proxy's accept loop sees the connection, so the
// test heals only once the proxy has counted (and so judged) it.
func TestPartitionStrandsNewConns(t *testing.T) {
	p, err := New(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Partition(true)
	c := dialProxy(t, p)
	if _, err := c.Write([]byte("into the void")); err != nil {
		t.Fatalf("write: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Accepted.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("proxy never accepted the connection")
		}
		time.Sleep(time.Millisecond)
	}
	p.Partition(false)
	buf := make([]byte, 1)
	c.SetReadDeadline(time.Now().Add(150 * time.Millisecond)) //nolint:errcheck
	if _, err := c.Read(buf); err == nil {
		t.Fatal("stranded connection came alive after heal")
	}
}

func TestDropConnsKillsInFlight(t *testing.T) {
	p, err := New(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	echoOnce(t, c, []byte("warm"))

	p.DropConns()
	buf := make([]byte, 1)
	c.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read succeeded on a dropped connection")
	}
	if p.Dropped.Load() == 0 {
		t.Fatal("Dropped counter did not move")
	}

	// The link (not the proxy) crashed: a redial works.
	c2 := dialProxy(t, p)
	msg := []byte("after the drop")
	if got := echoOnce(t, c2, msg); !bytes.Equal(got, msg) {
		t.Fatalf("redial echo mismatch: %q", got)
	}
}

func TestCorruptChunks(t *testing.T) {
	p, err := New(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)

	p.CorruptChunks(1)
	msg := []byte("these bytes must not survive intact")
	got := echoOnce(t, c, msg)
	if bytes.Equal(got, msg) {
		t.Fatal("chunk passed through uncorrupted")
	}
	// Exactly one flipped byte: the fault is a torn frame, not noise.
	diffs := 0
	for i := range msg {
		if got[i] != msg[i] {
			diffs++
		}
	}
	if diffs != 1 {
		t.Fatalf("%d bytes differ, want 1", diffs)
	}

	// The budget is spent; the next chunk is clean.
	if got := echoOnce(t, c, msg); !bytes.Equal(got, msg) {
		t.Fatalf("post-budget chunk still corrupted: %q", got)
	}
}

func TestSetDelaySlowsLink(t *testing.T) {
	p, err := New(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	echoOnce(t, c, []byte("warm"))

	p.SetDelay(60 * time.Millisecond)
	start := time.Now()
	echoOnce(t, c, []byte("slow"))
	// Two pump directions, ≥60ms each; allow generous slack below the sum
	// so a loaded CI machine doesn't flake the lower bound.
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("round trip %v, want ≥100ms with 2×60ms injected", d)
	}
}
