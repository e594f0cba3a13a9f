// Package netfault is a fault-injecting TCP proxy: the network-link
// counterpart of faultfs. A test points a replication follower (or client)
// at the proxy instead of the real server, then injects the link faults a
// WAN actually produces — partitions that silently blackhole traffic,
// abrupt connection drops, corrupted bytes (torn frames), and added
// latency — all deterministically, from test code, with no root or tc(8).
//
// Fault model:
//
//   - Partition(true) blackholes the link: established connections stall
//     mid-stream (no FIN, no RST — bytes just stop, exactly like a dead
//     route), and new connections are accepted but never serviced. This is
//     the fault heartbeat timeouts exist for. Partition(false) heals the
//     link; stalled pumps resume, but connections accepted while
//     partitioned stay dead until the peer gives up and redials.
//   - DropConns() abruptly closes every in-flight connection (RST-ish),
//     the crash/failover signature.
//   - CorruptChunks(n) flips a byte in each of the next n forwarded
//     chunks. The wire protocol's CRC32C framing must turn each into a
//     detected frame error, never silent garbage — that is precisely what
//     the soak asserts.
//   - SetDelay(d) sleeps d before forwarding each chunk in each direction,
//     the slow-link / high-RTT case that opens race windows.
package netfault

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy forwards TCP connections to Target, injecting configured faults.
// All knobs are safe to flip concurrently with live traffic.
type Proxy struct {
	ln     net.Listener
	target string

	partitioned atomic.Bool
	delayNS     atomic.Int64
	corrupt     atomic.Int64 // chunks left to corrupt
	closed      atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	// Accepted counts connections accepted (including ones stranded by a
	// partition), bumped only after the partition check that decides the
	// connection's fate; Dropped counts connections killed by DropConns.
	Accepted atomic.Uint64
	Dropped  atomic.Uint64
}

// New starts a proxy on a fresh loopback port forwarding to target.
func New(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address — what the faulted peer dials.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Partition blackholes (true) or heals (false) the link.
func (p *Proxy) Partition(on bool) { p.partitioned.Store(on) }

// SetDelay makes every forwarded chunk wait d per direction (0 = none).
func (p *Proxy) SetDelay(d time.Duration) { p.delayNS.Store(int64(d)) }

// CorruptChunks flips one byte in each of the next n forwarded chunks.
func (p *Proxy) CorruptChunks(n int) { p.corrupt.Store(int64(n)) }

// DropConns abruptly closes every in-flight connection. New connections
// keep being accepted (unless partitioned) — this is a crash of the link,
// not of the proxy.
func (p *Proxy) DropConns() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close() //nolint:errcheck
		delete(p.conns, c)
		p.Dropped.Add(1)
	}
	p.mu.Unlock()
}

// Close shuts the proxy down: the listener stops and every connection dies.
func (p *Proxy) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.ln.Close() //nolint:errcheck
	p.DropConns()
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	if p.conns == nil {
		p.conns = make(map[net.Conn]struct{})
	}
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Decide before counting: once Accepted covers this connection, its
		// fate is fixed, so a test that waits for the count before healing a
		// partition knows the connection was stranded.
		stranded := p.partitioned.Load()
		p.Accepted.Add(1)
		if stranded {
			// Partition semantics: the SYN handshake may complete (the
			// kernel did that before Accept returned), but no byte ever
			// flows and no close is sent until the partition heals or the
			// proxy dies. Track it so DropConns/Close still reap it.
			p.track(c)
			continue
		}
		go p.serve(c)
	}
}

func (p *Proxy) serve(down net.Conn) {
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		down.Close() //nolint:errcheck
		return
	}
	p.track(down)
	p.track(up)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.pump(up, down) }()
	go func() { defer wg.Done(); p.pump(down, up) }()
	wg.Wait()
	p.untrack(down)
	p.untrack(up)
	down.Close() //nolint:errcheck
	up.Close()   //nolint:errcheck
}

// pump copies src→dst one chunk at a time, applying the configured faults
// between read and write. Chunked copying (not io.Copy) is what gives the
// fault hooks a deterministic place to stall, delay, or corrupt.
func (p *Proxy) pump(dst, src net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			// A partition stalls the byte stream without closing it. Poll
			// until healed; if the connection is reaped meanwhile, the
			// write below fails and the pump exits.
			for p.partitioned.Load() && !p.closed.Load() {
				time.Sleep(2 * time.Millisecond)
			}
			if d := p.delayNS.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if p.corrupt.Load() > 0 && p.corrupt.Add(-1) >= 0 {
				buf[n/2] ^= 0xA5
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			if err != io.EOF {
				return
			}
			// Propagate a clean EOF as a half-close so pipelined peers see
			// the same shutdown sequence they would without the proxy.
			if tc, ok := dst.(*net.TCPConn); ok {
				tc.CloseWrite() //nolint:errcheck
			}
			return
		}
	}
}
