package client

import (
	"context"
	"errors"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/wire"
)

// fakeServer accepts connections and answers each decoded request through
// handle. Returning nil suppresses the response (to exercise timeouts).
type fakeServer struct {
	ln       net.Listener
	requests atomic.Uint64
	handle   func(*wire.Request) *wire.Response

	connMu sync.Mutex
	conns  []net.Conn
}

// kill closes the listener and every accepted connection — the whole server
// drops off the network, as a crashed process would.
func (fs *fakeServer) kill() {
	fs.ln.Close() //nolint:errcheck
	fs.connMu.Lock()
	defer fs.connMu.Unlock()
	for _, nc := range fs.conns {
		nc.Close() //nolint:errcheck
	}
	fs.conns = nil
}

func newFakeServer(t *testing.T, handle func(*wire.Request) *wire.Response) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, handle: handle}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			fs.connMu.Lock()
			fs.conns = append(fs.conns, nc)
			fs.connMu.Unlock()
			go fs.serveConn(nc)
		}
	}()
	t.Cleanup(func() { ln.Close() }) //nolint:errcheck
	return fs
}

func (fs *fakeServer) serveConn(nc net.Conn) {
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
		fs.requests.Add(1)
		res := fs.handle(req)
		if res == nil {
			continue // swallowed: the caller is testing its own timeout
		}
		res.ID = req.ID
		if _, err := nc.Write(wire.AppendResponse(nil, res)); err != nil {
			return
		}
	}
}

// okFor builds the minimal success response for an op (Dial pings).
func okFor(req *wire.Request) *wire.Response {
	return &wire.Response{Op: req.Op, OK: true}
}

// TestClientRetriesRetryable: a retryable rejection (overloaded) is retried
// up to MaxRetries with the server's retry-after hint honored, and the call
// succeeds once the server relents.
func TestClientRetriesRetryable(t *testing.T) {
	var rejects atomic.Int64
	rejects.Store(2)
	fs := newFakeServer(t, func(req *wire.Request) *wire.Response {
		if req.Op == wire.OpInsert && rejects.Add(-1) >= 0 {
			return &wire.Response{Op: req.Op, Err: wire.ErrCodeOverloaded, RetryAfterMS: 1}
		}
		return okFor(req)
	})
	c, err := Dial(fs.ln.Addr().String(), Options{MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if err := c.Insert(context.Background(), 1, 2); err != nil {
		t.Fatalf("Insert after retries: %v", err)
	}
	// 1 hello + 1 ping + 2 rejected attempts + 1 success.
	if got := fs.requests.Load(); got != 5 {
		t.Fatalf("server saw %d requests, want 5", got)
	}
}

// TestClientRetryBudgetExhausted: when every attempt is rejected the client
// gives up after exactly MaxRetries extra attempts and surfaces the typed
// error, which unwraps to the in-process sentinel.
func TestClientRetryBudgetExhausted(t *testing.T) {
	fs := newFakeServer(t, func(req *wire.Request) *wire.Response {
		if req.Op == wire.OpInsert {
			return &wire.Response{Op: req.Op, Err: wire.ErrCodeOverloaded, RetryAfterMS: 1}
		}
		return okFor(req)
	})
	c, err := Dial(fs.ln.Addr().String(), Options{MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	err = c.Insert(context.Background(), 1, 2)
	if !errors.Is(err, chameleon.ErrOverloaded) {
		t.Fatalf("exhausted retries: %v, want ErrOverloaded", err)
	}
	if got := fs.requests.Load(); got != 2+4 { // hello + ping + (1 try + 3 retries)
		t.Fatalf("server saw %d requests, want 6", got)
	}
}

// TestClientNoRetryOnFinal: non-retryable rejections (duplicate key) return
// immediately — exactly one attempt.
func TestClientNoRetryOnFinal(t *testing.T) {
	fs := newFakeServer(t, func(req *wire.Request) *wire.Response {
		if req.Op == wire.OpInsert {
			return &wire.Response{Op: req.Op, Err: wire.ErrCodeDuplicateKey}
		}
		return okFor(req)
	})
	c, err := Dial(fs.ln.Addr().String(), Options{MaxRetries: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if err := c.Insert(context.Background(), 1, 2); !errors.Is(err, chameleon.ErrDuplicateKey) {
		t.Fatalf("duplicate: %v", err)
	}
	if got := fs.requests.Load(); got != 3 { // hello + ping + 1 attempt, no retry
		t.Fatalf("server saw %d requests, want 3", got)
	}
}

// TestClientVersionMismatchSurfaces: a server that rejects HELLO — with the
// typed version-mismatch code (a different protocol version), or as a
// malformed unknown opcode (a server that predates negotiation) — fails the
// dial with that typed error after exactly one HELLO. The client never
// degrades to the pre-HELLO protocol, which would mean decoding frames from
// an incompatible peer.
func TestClientVersionMismatchSurfaces(t *testing.T) {
	for _, code := range []wire.ErrCode{wire.ErrCodeVersionMismatch, wire.ErrCodeMalformed} {
		t.Run(code.String(), func(t *testing.T) {
			var hellos atomic.Int64
			fs := newFakeServer(t, func(req *wire.Request) *wire.Response {
				if req.Op == wire.OpHello {
					hellos.Add(1)
					return &wire.Response{Op: req.Op, Err: code, Msg: "HELLO refused"}
				}
				return okFor(req)
			})
			_, err := Dial(fs.ln.Addr().String(), Options{})
			var re *wire.RemoteError
			if !errors.As(err, &re) || re.Code != code {
				t.Fatalf("Dial against a HELLO-refusing server: %v, want %v", err, code)
			}
			if got, reqs := hellos.Load(), fs.requests.Load(); got != 1 || reqs != 1 {
				t.Fatalf("client sent %d HELLOs and %d requests, want exactly one HELLO", got, reqs)
			}
		})
	}
}

// TestClientSeqTokenWatermark: negotiated connections track the highest
// commit-sequence token seen across replies, max-wise — an out-of-order
// older token must not regress the watermark.
func TestClientSeqTokenWatermark(t *testing.T) {
	var seq atomic.Uint64
	fs := newFakeServer(t, func(req *wire.Request) *wire.Response {
		switch req.Op {
		case wire.OpHello:
			return &wire.Response{Op: req.Op, OK: true, Version: wire.ProtocolVersion}
		case wire.OpInsert:
			return &wire.Response{Op: req.Op, OK: true, Seq: seq.Add(1), HasSeq: true}
		}
		return okFor(req)
	})
	c, err := Dial(fs.ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	ctx := context.Background()
	for k := uint64(1); k <= 5; k++ {
		if err := c.Insert(ctx, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
	c.noteSeq(3) // stale token arriving late
	if got := c.LastSeq(); got != 5 {
		t.Fatalf("LastSeq regressed to %d on a stale token", got)
	}
}

// TestClientOutOfOrderResponses: the server answers pipelined requests in
// reverse order; id matching must route each response to its caller.
func TestClientOutOfOrderResponses(t *testing.T) {
	// Hold GET responses until two are pending, then release reversed.
	type held struct {
		nc  net.Conn
		res *wire.Response
	}
	pending := make(chan held, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
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
			res := &wire.Response{ID: req.ID, Op: req.Op, OK: true, Found: true, Val: req.Key * 10}
			if req.Op != wire.OpGet {
				nc.Write(wire.AppendResponse(nil, res)) //nolint:errcheck
				continue
			}
			pending <- held{nc, res}
			if len(pending) == 2 {
				// Release in reverse arrival order.
				a, b := <-pending, <-pending
				nc.Write(wire.AppendResponse(nil, b.res)) //nolint:errcheck
				nc.Write(wire.AppendResponse(nil, a.res)) //nolint:errcheck
			}
		}
	}()

	c, err := Dial(ln.Addr().String(), Options{MaxPipeline: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	type out struct {
		key, val uint64
		err      error
	}
	results := make(chan out, 2)
	for _, key := range []uint64{7, 9} {
		go func(key uint64) {
			v, _, err := c.Get(context.Background(), key)
			results <- out{key, v, err}
		}(key)
		time.Sleep(50 * time.Millisecond) // deterministic arrival order
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("Get(%d): %v", r.key, r.err)
		}
		if r.val != r.key*10 {
			t.Fatalf("Get(%d) routed wrong response: val %d", r.key, r.val)
		}
	}
}

// TestClientContextCancel: a swallowed response leaves the caller waiting;
// its context deadline must free it (and its pipeline slot) promptly.
func TestClientContextCancel(t *testing.T) {
	fs := newFakeServer(t, func(req *wire.Request) *wire.Response {
		if req.Op == wire.OpGet {
			return nil // never answer
		}
		return okFor(req)
	})
	c, err := Dial(fs.ln.Addr().String(), Options{MaxPipeline: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = c.Get(ctx, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get on mute server: %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not return promptly")
	}
	// The abandoned call released its slot: with MaxPipeline=1 a follow-up
	// ping would hang forever otherwise.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if err := c.Ping(ctx2); err != nil {
		t.Fatalf("Ping after abandoned call: %v", err)
	}
}

// TestClientRedialsBrokenConn: a connection dropped mid-stream fails the
// in-flight call with a transport error (no silent retry of a write whose
// fate is unknown), and the next call on the slot redials transparently.
func TestClientRedialsBrokenConn(t *testing.T) {
	var kill atomic.Bool
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck
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
					if req.Op == wire.OpInsert && kill.CompareAndSwap(true, false) {
						return // hang up with the call in flight
					}
					res := okFor(req)
					res.ID = req.ID
					if _, err := nc.Write(wire.AppendResponse(nil, res)); err != nil {
						return
					}
				}
			}(nc)
		}
	}()

	c, err := Dial(ln.Addr().String(), Options{MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	kill.Store(true)
	err = c.Insert(context.Background(), 1, 2)
	if err == nil {
		t.Fatal("insert on killed conn reported success")
	}
	var re *wire.RemoteError
	if errors.As(err, &re) {
		t.Fatalf("dropped conn surfaced a typed rejection %v; its fate is unknown, not rejected", err)
	}
	// Next call redials and works.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("redial after broken conn: %v", err)
	}
}

// TestClientRangeLimitClamp pins the wire conversion of Range's limit: the
// field is 32 bits, so an int limit at or above 1<<32 must clamp to the
// maximum instead of truncating — a limit of exactly 1<<32 used to wrap to 0,
// which the server reads as "use the default page size".
func TestClientRangeLimitClamp(t *testing.T) {
	var lastLimit atomic.Uint64
	fs := newFakeServer(t, func(req *wire.Request) *wire.Response {
		if req.Op == wire.OpRange {
			lastLimit.Store(uint64(req.Limit))
		}
		return okFor(req)
	})
	c, err := Dial(fs.ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	ctx := context.Background()

	call := func(limit int, want uint64) {
		t.Helper()
		if _, _, err := c.Range(ctx, 0, 100, limit); err != nil {
			t.Fatalf("Range(limit=%d): %v", limit, err)
		}
		if got := lastLimit.Load(); got != want {
			t.Fatalf("Range(limit=%d) sent wire limit %d, want %d", limit, got, want)
		}
	}
	call(5, 5)
	call(0, 0)  // explicit "server default"
	call(-3, 0) // negative normalizes to the default, not a huge unsigned value
	if math.MaxInt > math.MaxUint32 {
		// 64-bit platforms: the regression case (exact 1<<32) and the extreme.
		var twoTo32 uint64 = 1 << 32
		call(int(twoTo32), math.MaxUint32)
		call(math.MaxInt, math.MaxUint32)
	}
}

// countingConn counts the Write calls that reach the socket.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (cc countingConn) Write(p []byte) (int, error) {
	cc.writes.Add(1)
	return cc.Conn.Write(p)
}

// TestClientCoalescesPipelinedWrites pins the flush leader: requests
// appended while a leader is pending share its one write(2). On one P, 64
// callers released at once reach the socket in a handful of writes (one
// each when every call flushes its own frame), and a lone call still takes
// exactly one write, with no wait for company.
func TestClientCoalescesPipelinedWrites(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fs := newFakeServer(t, okFor)
	c := newClient(fs.ln.Addr().String(), Options{MaxPipeline: 64})
	defer c.Close() //nolint:errcheck
	var writes atomic.Int64
	c.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		nc, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		nc.(*net.TCPConn).SetNoDelay(true) //nolint:errcheck
		return countingConn{Conn: nc, writes: &writes}, nil
	}
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil { // dials: HELLO, then the PING
		t.Fatal(err)
	}

	before := writes.Load()
	if _, _, err := c.Get(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if got := writes.Load() - before; got != 1 {
		t.Fatalf("a lone Get took %d writes, want 1", got)
	}

	const callers = 64
	before = writes.Load()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			if _, _, err := c.Get(ctx, key); err != nil {
				errs <- err
			}
		}(uint64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("pipelined Get: %v", err)
	}
	got := writes.Load() - before
	t.Logf("%d concurrent Gets on one connection took %d writes", callers, got)
	if got > 8 {
		t.Fatalf("%d concurrent Gets took %d writes, want at most 8", callers, got)
	}
}

// taggedConn records, in last, the tag of the connection that took the
// latest Write.
type taggedConn struct {
	net.Conn
	tag  int64
	last *atomic.Int64
}

func (tc taggedConn) Write(p []byte) (int, error) {
	tc.last.Store(tc.tag)
	return tc.Conn.Write(p)
}

// TestClientPickIgnoresCallOrder: a pooled call's connection does not follow
// from its position in the caller's stream. With the pool taken in turn,
// every even-numbered call of a 2-connection pool went down one connection
// and every odd-numbered call down the other, so two writes an even
// distance apart in a periodic workload always reached the same server
// reader (one write run, one commit) and two an odd distance apart never
// did. Sequential calls each take one socket write, so the connection that
// took the latest write is the call's.
func TestClientPickIgnoresCallOrder(t *testing.T) {
	fs := newFakeServer(t, okFor)
	c := newClient(fs.ln.Addr().String(), Options{Conns: 2})
	defer c.Close() //nolint:errcheck
	var dials, last atomic.Int64
	c.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		nc, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return taggedConn{Conn: nc, tag: dials.Add(1), last: &last}, nil
	}
	ctx := context.Background()
	var hits [2][3]int // [call parity][connection tag]
	for i := 0; i < 200; i++ {
		if _, _, err := c.Get(ctx, uint64(i)); err != nil {
			t.Fatal(err)
		}
		hits[i%2][last.Load()]++
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2 (one per pool slot)", n)
	}
	for parity, h := range hits {
		if h[1] == 0 || h[2] == 0 {
			t.Fatalf("calls of parity %d went to the connections %v times: one connection took all of them", parity, h[1:])
		}
	}
}

// TestClientDeadlineAfterSendLeavesWriteUnknown: the protocol has no cancel
// frame, so a caller whose context expires after its INSERT went out gets
// the bare context error while the server may well have applied the write.
// The error must not pass for a typed rejection (which would promise no
// durable effect): its fate is unknown, as after a broken connection.
func TestClientDeadlineAfterSendLeavesWriteUnknown(t *testing.T) {
	applied := make(chan uint64, 1)
	release := make(chan struct{})
	fs := newFakeServer(t, func(req *wire.Request) *wire.Response {
		if req.Op == wire.OpInsert {
			applied <- req.Key // the write takes effect...
			<-release          // ...and its reply is held past the deadline
		}
		return okFor(req)
	})
	defer close(release)
	c, err := Dial(fs.ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = c.Insert(ctx, 7, 70)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Insert with its reply held past the deadline: %v, want context.DeadlineExceeded", err)
	}
	var re *wire.RemoteError
	if errors.As(err, &re) {
		t.Fatalf("deadline surfaced as typed rejection %v", err)
	}
	select {
	case key := <-applied:
		if key != 7 {
			t.Fatalf("server applied key %d, want 7", key)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the INSERT never reached the server")
	}
}
