// Package client is the Go client for a chameleon server. It pools
// connections and pipelines: every call takes an in-flight slot on one
// pooled connection, writes its frame, and parks on a channel until the
// reader goroutine delivers the response matched by request id — so many
// goroutines sharing one client keep every connection's pipeline full, which
// is exactly the arrival pattern the server's group-commit queue amortizes
// best.
//
// The server's answers carry the durable index's context-aware contract
// (InsertCtx/DeleteCtx semantics): nil means the mutation is durable per the
// server's sync policy, and a typed retryable rejection (*wire.RemoteError:
// overloaded, disk-full, or cancelled on the server, which unwraps to
// context.Canceled) means it had no durable effect. The caller's own
// context is not part of that contract. The protocol has no cancel frame,
// so once a call's frame is buffered for the wire the server may apply it
// whatever happens to ctx: a bare ctx.Err() from a write leaves its fate
// unknown, as IsConnBroken does. Retries are bounded and happen only for
// typed retryable rejections — never for transport or context errors, whose
// outcome is ambiguous and must stay the caller's decision.
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chameleon"
	"chameleon/internal/wire"
)

// Options tunes a Client. The zero value works.
type Options struct {
	// Conns is the connection-pool size (default 1). Each call takes a
	// connection at random; more connections help once a single pipeline
	// saturates.
	Conns int
	// MaxPipeline caps in-flight requests per connection (default 64).
	// Callers beyond the cap wait for a slot (or their context).
	MaxPipeline int
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// MaxRetries bounds how many times a call is re-sent after a typed
	// retryable rejection. Zero, the value the replication dialer and the
	// failure detector's probes use, means no retry (bench/ passes 2); a
	// negative value counts as zero.
	MaxRetries int
}

// Full-jitter retry window: before attempt k the client sleeps a uniform
// draw from [0, min(retryBackoffCap, retryBackoff<<k)]. Full jitter (not
// plain exponential) keeps a thundering herd of rejected clients from
// re-arriving in lockstep and re-tripping the overload that rejected them.
const (
	retryBackoff    = 2 * time.Millisecond
	retryBackoffCap = 250 * time.Millisecond
)

func (o Options) withDefaults() Options {
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.MaxPipeline <= 0 {
		o.MaxPipeline = 64
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	return o
}

// retryDelay computes the sleep before retry attempt (0-based) under the
// full-jitter policy: a uniform draw from [0, window] where window =
// min(cap, base<<attempt). A positive server hint wins outright — the server
// knows its own queue. rnd is rand.Int64N-shaped, injected so the bounds are
// unit-testable.
func retryDelay(base, cap time.Duration, attempt int, hintMS uint32, rnd func(int64) int64) time.Duration {
	if hintMS > 0 {
		return time.Duration(hintMS) * time.Millisecond
	}
	window := cap
	// A shift that overflows (or a huge attempt) means the window passed cap
	// long ago.
	if attempt < 32 {
		if w := base << uint(attempt); w > 0 && w < cap {
			window = w
		}
	}
	return time.Duration(rnd(int64(window) + 1))
}

// ErrClientClosed is returned by calls on a closed Client.
var ErrClientClosed = errors.New("client: closed")

// errConnBroken wraps the transport failure that killed a pooled
// connection; calls in flight on it fail with this, and the next call on
// its slot redials.
type errConnBroken struct{ cause error }

func (e *errConnBroken) Error() string { return fmt.Sprintf("client: connection broken: %v", e.cause) }
func (e *errConnBroken) Unwrap() error { return e.cause }

// IsConnBroken reports whether err is a pooled-connection transport failure —
// the call's outcome is ambiguous (it may or may not have executed). The
// failover pool treats it as "this server may be dead: re-resolve".
func IsConnBroken(err error) bool {
	var e *errConnBroken
	return errors.As(err, &e)
}

// IsNotPrimary reports whether err is the server's typed not-primary
// rejection. It is NOT retryable in place (the node will not become primary
// by asking again — do() never retries it); the correct reaction is the
// failover pool's: re-resolve which node is primary and re-issue there. The
// rejection guarantees the mutation had no durable effect, so re-issuing is
// always safe.
func IsNotPrimary(err error) bool {
	var re *wire.RemoteError
	return errors.As(err, &re) && re.Code == wire.ErrCodeNotPrimary
}

// Client is a pooled, pipelined connection to one server. Safe for
// concurrent use by any number of goroutines.
type Client struct {
	addr string
	opts Options

	ids    atomic.Uint64 // request ids (never 0: 0 is the conn-level slot)
	closed atomic.Bool

	// lastSeq is the highest commit-sequence token observed on any reply: the
	// client's read-your-writes watermark (see LastSeq).
	lastSeq atomic.Uint64
	// role/epoch are the server's replication role and fencing epoch as
	// announced in the latest HELLO (zero when replication is off). A
	// snapshot from negotiation time, not live state — the failover pool
	// re-dials to refresh it.
	role  atomic.Uint32
	epoch atomic.Uint64

	mu    sync.Mutex // guards pool slots during dial/redial
	conns []*conn

	// dial opens a pooled connection's socket: net.Dialer's DialContext,
	// replaced by package tests that wrap the conn.
	dial func(ctx context.Context, network, addr string) (net.Conn, error)
}

// conn is one pooled connection: a writer side (mutex-serialized encode,
// one flush per burst) and a reader goroutine that routes responses to
// waiters by id.
type conn struct {
	nc    net.Conn
	slots chan struct{}

	wmu sync.Mutex
	bw  *bufio.Writer
	enc []byte // reusable encode buffer, guarded by wmu
	// led is set, under wmu, while frames sit in bw with a flush leader
	// committed to writing them: a caller that finds it set appends and
	// only waits for its reply.
	led bool

	pmu     sync.Mutex
	pending map[uint64]chan *wire.Response
	err     error // set once broken; pending are failed, future calls redial
}

// Dial connects to addr and verifies liveness with a PING.
func Dial(addr string, opts Options) (*Client, error) {
	return DialContext(context.Background(), addr, opts)
}

// DialContext is Dial under ctx: cancelling ctx abandons the connect, HELLO
// or PING in flight, so a caller shutting down never waits out DialTimeout
// on a peer that accepted the connection but never answers.
func DialContext(ctx context.Context, addr string, opts Options) (*Client, error) {
	c := newClient(addr, opts)
	ctx, cancel := context.WithTimeout(ctx, c.opts.DialTimeout)
	defer cancel()
	if err := c.Ping(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// newClient builds a Client with an empty pool; the first call dials.
func newClient(addr string, opts Options) *Client {
	c := &Client{addr: addr, opts: opts.withDefaults()}
	c.conns = make([]*conn, c.opts.Conns)
	c.dial = (&net.Dialer{}).DialContext
	return c
}

// dialConn establishes one pooled connection; DialTimeout bounds the
// connect and the HELLO together, and ctx can cut both short.
func (c *Client) dialConn(ctx context.Context) (*conn, error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.DialTimeout)
	defer cancel()
	nc, err := c.dial(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) //nolint:errcheck
	}
	cn := &conn{
		nc:      nc,
		slots:   make(chan struct{}, c.opts.MaxPipeline),
		bw:      bufio.NewWriterSize(nc, 64<<10),
		pending: make(map[uint64]chan *wire.Response),
	}
	go cn.readLoop()
	if err := c.hello(ctx, cn); err != nil {
		// A rejected HELLO — a version mismatch, or a server too old to know
		// the opcode — is a permanent incompatibility: surface it.
		cn.nc.Close() //nolint:errcheck
		return nil, err
	}
	return cn, nil
}

// hello opens a fresh connection with the protocol version.
func (c *Client) hello(ctx context.Context, cn *conn) error {
	req := &wire.Request{ID: c.ids.Add(1), Op: wire.OpHello, Version: wire.ProtocolVersion}
	res, err := cn.roundTrip(ctx, req)
	if err != nil {
		return err
	}
	if !res.OK {
		return &wire.RemoteError{Code: res.Err, RetryAfterMS: res.RetryAfterMS, Msg: res.Msg}
	}
	c.role.Store(uint32(res.Role))
	c.epoch.Store(res.Epoch)
	return nil
}

// ServerRole reports the server's replication role as of the latest HELLO
// (RoleNone when replication is off).
func (c *Client) ServerRole() chameleon.ReplRole {
	return chameleon.ReplRole(c.role.Load())
}

// ServerEpoch reports the server's fencing epoch as of the latest HELLO.
func (c *Client) ServerEpoch() uint64 { return c.epoch.Load() }

// LastSeq is the highest commit-sequence token this client has observed on
// any reply — pass it to a follower's GetAtLeast for read-your-writes.
func (c *Client) LastSeq() uint64 { return c.lastSeq.Load() }

// noteSeq advances the read-your-writes watermark monotonically.
func (c *Client) noteSeq(seq uint64) {
	for {
		cur := c.lastSeq.Load()
		if seq <= cur || c.lastSeq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// pick returns a live pooled connection, redialing a broken or not-yet-
// dialed slot under ctx. The slot is drawn at random, not taken in turn:
// turns tie a call's connection to its position in the caller's stream, so
// a stream with a periodic pattern (every k-th call a write, say) sends
// each of its ops down a fixed connection, and whether two writes meet in
// one server-side write run, and share a commit, would hinge on the
// parity of their distance rather than on their timing.
func (c *Client) pick(ctx context.Context) (*conn, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	i := rand.IntN(len(c.conns))
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	cn := c.conns[i]
	if cn != nil && cn.broken() == nil {
		return cn, nil
	}
	fresh, err := c.dialConn(ctx)
	if err != nil {
		return nil, err
	}
	if cn != nil {
		cn.nc.Close() //nolint:errcheck
	}
	c.conns[i] = fresh
	return fresh, nil
}

func (cn *conn) broken() error {
	cn.pmu.Lock()
	defer cn.pmu.Unlock()
	return cn.err
}

// fail marks the connection dead and wakes every in-flight call with the
// cause. Idempotent; the first cause wins.
func (cn *conn) fail(cause error) {
	cn.pmu.Lock()
	if cn.err == nil {
		cn.err = &errConnBroken{cause: cause}
	}
	waiters := cn.pending
	cn.pending = make(map[uint64]chan *wire.Response)
	cn.pmu.Unlock()
	cn.nc.Close() //nolint:errcheck
	for _, ch := range waiters {
		close(ch) // a closed channel (nil response) signals "conn died"
	}
}

// readLoop routes responses to their waiting callers by request id until
// the connection dies.
func (cn *conn) readLoop() {
	br := bufio.NewReaderSize(cn.nc, 64<<10)
	// Every reply is decoded (copied out) before the next is read, so one
	// buffer serves them all; it holds a 100-pair RANGE reply, and a longer
	// frame is read into its own allocation.
	rbuf := make([]byte, 0, 4<<10)
	for {
		payload, err := wire.ReadFrame(br, rbuf)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			cn.fail(err)
			return
		}
		res, err := wire.DecodeResponse(payload)
		if err != nil {
			cn.fail(err)
			return
		}
		if res.ID == 0 {
			// Connection-level rejection (conn limit, unframeable input):
			// the server is about to hang up on us.
			cn.fail(&wire.RemoteError{Code: res.Err, RetryAfterMS: res.RetryAfterMS, Msg: res.Msg})
			return
		}
		cn.pmu.Lock()
		ch, ok := cn.pending[res.ID]
		delete(cn.pending, res.ID)
		cn.pmu.Unlock()
		if ok {
			ch <- res // buffered: never blocks the read loop
		}
		// Unknown ids are responses whose caller gave up (context expiry
		// deregistered them); dropping is the correct thing.
	}
}

// roundTrip sends one request on cn and waits for its response, honoring
// ctx at every blocking point. On ctx expiry the caller deregisters and
// returns; a late response is dropped by the read loop.
//
// Frames that arrive together share one write(2): the caller that appends
// to an empty burst leads it, and everyone who appends before the leader
// flushes rides along and just waits for its reply. The leader yields once
// before the flush when other requests are in flight on the connection, so
// that callers its reader has just woken, or that are runnable but have not
// reached wmu, can join the burst; a lone request flushes at once.
func (cn *conn) roundTrip(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	select {
	case cn.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-cn.slots }()

	ch := make(chan *wire.Response, 1)
	cn.pmu.Lock()
	if cn.err != nil {
		err := cn.err
		cn.pmu.Unlock()
		return nil, err
	}
	cn.pending[req.ID] = ch
	cn.pmu.Unlock()

	cn.wmu.Lock()
	cn.enc = wire.AppendRequest(cn.enc[:0], req)
	_, werr := cn.bw.Write(cn.enc)
	lead := werr == nil && !cn.led
	if lead {
		cn.led = true
	}
	cn.wmu.Unlock()
	if lead {
		if len(cn.slots) > 1 {
			runtime.Gosched()
		}
		cn.wmu.Lock()
		werr = cn.bw.Flush()
		cn.led = false
		cn.wmu.Unlock()
	}
	if werr != nil {
		cn.fail(werr)
		// fail() already woke ch by closing it; fall through to the select
		// so the error reported is the connection's first cause.
	}

	select {
	case res, ok := <-ch:
		if !ok {
			return nil, cn.broken()
		}
		return res, nil
	case <-ctx.Done():
		cn.pmu.Lock()
		delete(cn.pending, req.ID)
		cn.pmu.Unlock()
		return nil, ctx.Err()
	}
}

// do runs one request with the bounded-retry loop. Only typed retryable
// rejections (wire.ErrCode.Retryable: the server guarantees no durable
// effect) are retried; transport errors and final answers return
// immediately.
func (c *Client) do(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		cn, err := c.pick(ctx)
		if err != nil {
			return nil, err
		}
		req.ID = c.ids.Add(1)
		res, err := cn.roundTrip(ctx, req)
		if err != nil {
			return nil, err
		}
		if res.OK {
			if res.HasSeq {
				c.noteSeq(res.Seq)
			}
			return res, nil
		}
		rerr := &wire.RemoteError{Code: res.Err, RetryAfterMS: res.RetryAfterMS, Msg: res.Msg}
		if !rerr.Retryable() || attempt == c.opts.MaxRetries {
			return nil, rerr
		}
		lastErr = rerr
		backoff := retryDelay(retryBackoff, retryBackoffCap, attempt, res.RetryAfterMS, rand.Int64N)
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, fmt.Errorf("%w (last rejection: %v)", ctx.Err(), lastErr)
		}
	}
	return nil, lastErr // unreachable; the loop always returns
}

// Get looks up key remotely.
func (c *Client) Get(ctx context.Context, key uint64) (val uint64, found bool, err error) {
	res, err := c.do(ctx, &wire.Request{Op: wire.OpGet, Key: key})
	if err != nil {
		return 0, false, err
	}
	return res.Val, res.Found, nil
}

// Insert adds key→val. A nil return means the write is durable per the
// server's sync policy; a typed retryable rejection means it had no durable
// effect (the two-state contract, over the wire). An error from ctx itself,
// like a broken connection, leaves the write's fate unknown.
func (c *Client) Insert(ctx context.Context, key, val uint64) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpInsert, Key: key, Val: val})
	return err
}

// Delete removes key, with Insert's durability contract.
func (c *Client) Delete(ctx context.Context, key uint64) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpDelete, Key: key})
	return err
}

// Range returns up to limit pairs of [lo, hi] ascending (limit 0 = the
// server's cap). more=true means the scan stopped at the limit; page by
// calling again with lo = last key + 1.
func (c *Client) Range(ctx context.Context, lo, hi uint64, limit int) (pairs []wire.Pair, more bool, err error) {
	if limit < 0 {
		limit = 0
	}
	// The wire field is 32-bit: clamp instead of truncating, or a limit of
	// exactly 1<<32 would wrap to 0 and silently mean "server default".
	lim32 := uint32(math.MaxUint32)
	if uint64(limit) <= math.MaxUint32 {
		lim32 = uint32(limit)
	}
	res, err := c.do(ctx, &wire.Request{Op: wire.OpRange, Key: lo, Val: hi, Limit: lim32})
	if err != nil {
		return nil, false, err
	}
	return res.Pairs, res.More, nil
}

// RangeAll pages through [lo, hi] until exhausted and returns everything.
func (c *Client) RangeAll(ctx context.Context, lo, hi uint64) ([]wire.Pair, error) {
	var all []wire.Pair
	for {
		pairs, more, err := c.Range(ctx, lo, hi, 0)
		if err != nil {
			return nil, err
		}
		all = append(all, pairs...)
		if !more || len(pairs) == 0 {
			return all, nil
		}
		last := pairs[len(pairs)-1].Key
		if last == ^uint64(0) || last+1 > hi {
			return all, nil
		}
		lo = last + 1
	}
}

// Stats fetches the server's health and counter snapshot — the same
// numbers an in-process caller reads from chameleon.Health, plus the
// server's connection counters. Raw is the JSON document as sent.
func (c *Client) Stats(ctx context.Context) (stats wire.StatsReply, raw []byte, err error) {
	res, err := c.do(ctx, &wire.Request{Op: wire.OpStats})
	if err != nil {
		return wire.StatsReply{}, nil, err
	}
	if err := json.Unmarshal(res.Stats, &stats); err != nil {
		return wire.StatsReply{}, res.Stats, fmt.Errorf("client: decoding stats: %w", err)
	}
	return stats, res.Stats, nil
}

// Ping round-trips a no-op.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpPing})
	return err
}

// Close tears down the pool. In-flight calls fail with a connection error.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cn := range c.conns {
		if cn != nil {
			cn.fail(ErrClientClosed)
		}
	}
	return nil
}
