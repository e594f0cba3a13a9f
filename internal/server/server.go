// Package server serves a chameleon.DurableIndex over TCP with the wire
// protocol. It is the network front-end the group-commit write path was
// built for: every connection pipelines — the reader keeps accepting frames
// while earlier requests are still executing. The INSERT/DELETE frames one
// read brings in are one write run, committed as one group-commit entry,
// and runs from many connections meet in the durable index's commit queue
// and share WAL writes and fsyncs. Responses carry the request's id and may
// return out of order; a run's replies reach the per-connection writer
// together, and the writer coalesces whatever responses are ready into one
// flush, so a run of writes goes back to the client in one syscall.
//
// Error surface: the durable index's admission and fault states map to
// typed protocol errors (wire's mapping table) with a retry-after hint on
// the retryable ones, so a remote caller sees exactly the contract an
// in-process caller gets from InsertCtx — shed writes were never logged,
// cancelled writes have no durable effect, acked writes are durable per the
// sync policy.
//
// Shutdown drains: stop accepting, stop reading new frames, finish every
// in-flight request and flush its response, checkpoint, and (when the
// server owns the index) close it. A client that got an ack before the
// drain finds its write after restart, always.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"chameleon"
	"chameleon/internal/repl"
	"chameleon/internal/wal"
	"chameleon/internal/wire"
)

// Index is the handle surface the server drives — satisfied by both
// *chameleon.DurableIndex and *chameleon.ShardedIndex. A write run reaches
// those two through their WriteBatchCtx, one group-commit entry per run
// (per shard touched, on a sharded handle, so writes to different ranges
// fan out onto independent WAL/fsync pipelines). The method is not part of
// this interface: the server recognizes the two handles by their concrete
// type, so that a wrapper embedding one of them (the benchmark's tracing
// decorator) keeps seeing every write through its own InsertCtx/DeleteCtx.
// Any other Index commits a run through concurrent InsertCtx/DeleteCtx
// calls.
type Index interface {
	Lookup(key uint64) (uint64, bool)
	// LookupBatch resolves keys[i] into vals[i], found[i] against one tree
	// snapshot; the server's GET coalescing executes a pipelined burst
	// through it. All three slices are at least len(keys) long.
	LookupBatch(keys, vals []uint64, found []bool)
	Range(lo, hi uint64, fn func(key, val uint64) bool)
	InsertCtx(ctx context.Context, key, val uint64) error
	DeleteCtx(ctx context.Context, key uint64) error
	Checkpoint() error
	Close() error
	Len() int
	WALSize() int64
	Health() chameleon.Health
	Err() error
	// CommitSeq/WaitSeq expose the commit clock behind sequence tokens and
	// GET_SEQ (read-your-writes on a follower). Both handles provide them;
	// the sharded CommitSeq is a monotonic sum, not a cross-shard order.
	CommitSeq() uint64
	WaitSeq(ctx context.Context, seq uint64) error
}

// shardedIndex is the optional surface a sharded handle adds; STATS reports
// the per-shard breakdown when the served index provides it.
type shardedIndex interface {
	Shards() int
	ShardHealths() []chameleon.Health
}

// Options tunes the server. The zero value serves correctly.
type Options struct {
	// MaxConns caps concurrent connections (default 256). Excess dials get
	// an ErrCodeConnLimit frame (request id 0) and are closed.
	MaxConns int
	// MaxPipeline caps the in-flight handlers per connection, each running
	// one request or one GET or write run, and the length of a run
	// (default 128). When a client over-pipelines, the server simply stops
	// reading its socket until a slot frees — TCP backpressure, no error.
	MaxPipeline int
	// OwnsIndex makes Shutdown checkpoint and close the index after the
	// drain. cmd/chameleon-serve sets it; tests that reuse the index don't.
	OwnsIndex bool
	// Repl attaches a replication controller: REPL_* / PROMOTE ops dispatch
	// into it, writes are gated on its role (followers and fenced
	// ex-primaries reject with ErrCodeNotPrimary), HELLO reports the node's
	// role and epoch, and STATS grows the repl_* fields. Nil = replication
	// off.
	Repl *repl.Node
}

const (
	// idleTimeout closes a connection that sends no frame for this long.
	idleTimeout = 5 * time.Minute
	// writeTimeout bounds each response flush.
	writeTimeout = 30 * time.Second
	// overloadedRetryMS and diskFullRetryMS are the retry-after hints sent
	// with the two retryable rejections.
	overloadedRetryMS = 2
	diskFullRetryMS   = 200
	// maxPullWait caps a REPL_PULL/GET_SEQ long-poll so a drain is never
	// stuck behind one.
	maxPullWait = 30 * time.Second
)

// rangeLimit caps pairs per RANGE response, 16 B each, so a full response
// (64 KiB) fits one MaxFrame. Clients page with More + lo=last+1.
const rangeLimit = 4096

func (o Options) withDefaults() Options {
	if o.MaxConns <= 0 {
		o.MaxConns = 256
	}
	if o.MaxPipeline <= 0 {
		o.MaxPipeline = 128
	}
	return o
}

// Server is a TCP front-end over one durable index. Create with New, start
// with Listen+Serve, stop with Shutdown (graceful) or Close (abrupt).
type Server struct {
	ix   Index
	opts Options

	// baseCtx parents every request context; cancel aborts in-flight index
	// ops when a drain deadline expires or Close demands a hard stop.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu    sync.Mutex
	ln    net.Listener
	conns map[*conn]struct{}
	// draining is set once, by Shutdown, under mu and before it kicks the
	// readers; Serve reads it under mu, so no conn joins after the kick.
	// Readers load it without mu once per frame.
	draining atomic.Bool

	connWG sync.WaitGroup
	start  time.Time

	totalConns atomic.Uint64
	requests   atomic.Uint64
	reqErrors  atomic.Uint64
	inFlight   atomic.Int64

	// Coalescing counters: getBatches counts multi-GET handler runs,
	// batchedGets the GETs they carried (so batchedGets/getBatches is the
	// mean coalesced depth; single GETs appear in neither); writeBatches and
	// batchedWrites count write runs of two or more the same way.
	getBatches    atomic.Uint64
	batchedGets   atomic.Uint64
	writeBatches  atomic.Uint64
	batchedWrites atomic.Uint64
}

// New wraps ix — a *chameleon.DurableIndex or *chameleon.ShardedIndex — in
// a server. The index must already be open; the server never mutates it
// except through the write surface any other caller would use: WriteBatchCtx
// on those two handles, InsertCtx/DeleteCtx on any other Index.
func New(ix Index, opts Options) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		ix:      ix,
		opts:    opts.withDefaults(),
		baseCtx: ctx,
		cancel:  cancel,
		conns:   make(map[*conn]struct{}),
		start:   time.Now(),
	}
}

// Listen binds addr (e.g. "127.0.0.1:0") without serving yet, so callers
// can read Addr before the first request.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return nil
}

// Addr reports the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on the listener bound by Listen. It returns nil
// after Shutdown/Close, or the fatal accept error otherwise.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			go s.refuse(nc, wire.ErrCodeClosed, "server draining")
			continue
		}
		if len(s.conns) >= s.opts.MaxConns {
			s.mu.Unlock()
			go s.refuse(nc, wire.ErrCodeConnLimit,
				fmt.Sprintf("connection limit %d reached", s.opts.MaxConns))
			continue
		}
		c := &conn{
			srv:   s,
			nc:    nc,
			out:   make(chan *batch, s.opts.MaxPipeline+8),
			slots: make(chan struct{}, s.opts.MaxPipeline),
			wdone: make(chan struct{}),
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		s.totalConns.Add(1)
		go c.run()
	}
}

// refuse tells a connection why it is being turned away (request id 0 —
// the connection-level slot) and closes it.
func (s *Server) refuse(nc net.Conn, code wire.ErrCode, msg string) {
	frame := wire.AppendResponse(nil, &wire.Response{
		ID: 0, Op: wire.OpPing, Err: code, Msg: msg,
	})
	nc.SetWriteDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	nc.Write(frame)                                      //nolint:errcheck
	// Absorb whatever the client already pipelined before closing: an
	// immediate close would answer those bytes with an RST, and a received
	// RST flushes the peer's receive queue — the refusal frame would be
	// destroyed before the client could read why it was turned away.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	io.Copy(io.Discard, nc)                             //nolint:errcheck
	nc.Close()                                          //nolint:errcheck
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Shutdown drains gracefully: stop accepting, interrupt idle readers,
// finish and flush every in-flight request, then checkpoint (and close,
// when the server owns the index). If ctx expires first, in-flight index
// operations are cancelled — their clients get ErrCodeCancelled, which the
// two-state contract guarantees means "no durable effect" — and
// connections are force-closed; the checkpoint is skipped (the WAL already
// holds every acked write) but the index is still closed cleanly.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyDraining := s.draining.Swap(true)
	ln := s.ln
	for c := range s.conns {
		// Kick readers out of their blocking ReadFrame; the conn teardown
		// then waits for in-flight handlers and flushes their responses.
		// The flag is set first: a reader re-arming its deadline after this
		// kick sees it (conn.run re-checks after arming).
		c.nc.SetReadDeadline(time.Now()) //nolint:errcheck
	}
	s.mu.Unlock()
	if alreadyDraining {
		// A concurrent Shutdown/Close is already driving the drain; just
		// wait for the connections to finish.
		s.connWG.Wait()
		return nil
	}
	if ln != nil {
		ln.Close() //nolint:errcheck
	}

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	graceful := true
	select {
	case <-done:
	case <-ctx.Done():
		graceful = false
		s.cancel() // cancel in-flight index ops (two-state: no durable effect)
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close() //nolint:errcheck
		}
		s.mu.Unlock()
		<-done // handlers unblock promptly once their contexts die
	}

	var err error
	if s.opts.OwnsIndex {
		if graceful {
			if cerr := s.ix.Checkpoint(); cerr != nil && !errors.Is(cerr, chameleon.ErrIndexClosed) {
				err = fmt.Errorf("drain checkpoint: %w", cerr)
			}
		}
		if cerr := s.ix.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("drain close: %w", cerr)
		}
	}
	if !graceful && err == nil {
		err = ctx.Err()
	}
	return err
}

// Close stops abruptly: no drain, no checkpoint. In-flight operations are
// cancelled and connections dropped. Acked writes are still durable — that
// is the WAL's job, not the server's.
func (s *Server) Close() error {
	s.cancel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: Shutdown takes the force path immediately
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// conn is one client connection: a reader goroutine (frame decode +
// dispatch), up to MaxPipeline handler goroutines, and a writer goroutine
// that coalesces responses. Each handler sends its replies on out as one
// batch: one request's, or a whole run's. out has room for one batch per
// slot plus a few of the reader's own replies (HELLO, malformed frames).
type conn struct {
	srv      *Server
	nc       net.Conn
	out      chan *batch
	slots    chan struct{}
	handlers sync.WaitGroup
	wdone    chan struct{}
}

// batch is one unit of a connection's work — a GET run, a write run, one
// other request, or a reply the reader produced itself — and owns every
// buffer it needs: the decoded requests, a GET run's lookup keys, values
// and found flags, a write run's WAL records and outcomes, and the
// replies. Ownership moves
// with the pointer, one goroutine at a time: the reader fills reqs and hands
// the batch to a handler, the handler fills the rest and sends it on out,
// and the writer encodes every reply and then returns the batch to
// batchPool. Nothing touches a batch after its replies are encoded, so the
// next run reuses its slices: a pipelined GET or write run costs the server
// no heap allocation in steady state.
type batch struct {
	c    *conn
	reqs []wire.Request
	// rs holds one reply per request, except after a GET run read the
	// index: the writer then encodes the replies from keys, vals and found.
	rs         []wire.Response
	keys, vals []uint64
	found      []bool
	recs       []wal.Record
	errs       []error
	// next and wg fan a write run out over InsertCtx/DeleteCtx for an Index
	// the server does not know by type (commitRun).
	next atomic.Int64
	wg   sync.WaitGroup
	// serve and commitNext are b.handle and b.commitOne, bound once: a go
	// statement calling a func value without arguments allocates nothing,
	// where one calling a method would allocate its closure.
	serve, commitNext func()
}

var batchPool sync.Pool

// newBatch returns an empty batch for c, reused when the pool has one.
func (c *conn) newBatch() *batch {
	b, _ := batchPool.Get().(*batch)
	if b == nil {
		b = new(batch)
		b.serve, b.commitNext = b.handle, b.commitOne
	}
	b.c = c
	return b
}

// release empties b, dropping what its replies and outcomes reference (a
// RANGE's pairs, an error), and returns it to the pool.
func (b *batch) release() {
	clear(b.rs)
	clear(b.errs)
	b.c = nil
	b.reqs, b.rs, b.errs = b.reqs[:0], b.rs[:0], b.errs[:0]
	b.keys, b.vals, b.found, b.recs = b.keys[:0], b.vals[:0], b.found[:0], b.recs[:0]
	batchPool.Put(b)
}

// resize returns s with length n, reusing its array when it is large
// enough. The elements are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// replies is how many replies b carries.
func (b *batch) replies() int {
	if len(b.rs) > 0 {
		return len(b.rs)
	}
	return len(b.reqs)
}

// appendReply encodes b's i-th reply onto dst.
func (b *batch) appendReply(dst []byte, i int) []byte {
	if len(b.rs) == 0 { // a GET run that read the index
		res := wire.Response{ID: b.reqs[i].ID, Op: wire.OpGet, OK: true, Found: b.found[i], Val: b.vals[i]}
		return wire.AppendResponse(dst, &res)
	}
	return wire.AppendResponse(dst, &b.rs[i])
}

// rearmFailpoint, when non-nil, runs in every connection reader after it
// dispatches what it has read and before it re-arms the read deadline for a
// read that can block. Tests use it to start a drain in that window.
var rearmFailpoint func()

func (c *conn) run() {
	defer c.srv.connWG.Done()
	defer c.srv.removeConn(c)
	go c.writer()

	br := bufio.NewReaderSize(c.nc, 64<<10)
	rbuf := make([]byte, 0, 64) // the longest request payload, REPL_PULL's, is 38 bytes
	// gets and writes accumulate the pipelined GETs and INSERT/DELETEs read
	// so far, each dispatched as one run the moment the reader would
	// otherwise block (no complete frame left in the buffer), when it hits
	// the pipeline cap, or when the loop ends. Coalescing therefore never
	// ADDS latency — a lone request is dispatched on the very next loop
	// iteration. Every other request runs alone at once.
	//
	// The idle deadline is armed only before a read that can block: frames
	// already buffered cost no deadline each.
	var gets, writes *batch
	helloed := false
	for {
		if !wire.FullFrameBuffered(br) {
			c.dispatchRun(gets)
			c.dispatchRun(writes)
			gets, writes = nil, nil
			if rearmFailpoint != nil {
				rearmFailpoint()
			}
			c.nc.SetReadDeadline(time.Now().Add(idleTimeout)) //nolint:errcheck
			// Shutdown sets draining before it kicks this deadline to now:
			// either the flag shows here, or the kick lands after the re-arm
			// above and the read below returns at once.
			if c.srv.draining.Load() {
				break
			}
		}
		payload, err := wire.ReadFrame(br, rbuf)
		if err != nil {
			// A framing-level error (bad CRC, absurd length) means the
			// stream cannot be resynchronized: report once on the
			// connection slot and hang up. I/O errors and timeouts just
			// hang up.
			if errors.Is(err, wire.ErrFrameCRC) || errors.Is(err, wire.ErrFrameTooLarge) ||
				errors.Is(err, wire.ErrFrameEmpty) {
				c.reply(wire.Response{ID: 0, Op: wire.OpPing, Err: wire.ErrCodeMalformed, Msg: err.Error()})
			}
			break
		}
		if c.srv.draining.Load() {
			break // stop consuming new work; in-flight finishes below
		}
		var req wire.Request
		if derr := wire.DecodeRequestInto(payload, &req); derr != nil {
			id, _ := wire.PeekID(payload)
			c.srv.reqErrors.Add(1)
			if !helloed {
				// A first request that does not decode is a peer of another
				// protocol version (an older HELLO is longer than this
				// one's): refuse it as such and hang up.
				c.reply(wire.Response{ID: id, Op: wire.Op(payload[0]), Err: wire.ErrCodeVersionMismatch,
					Msg: fmt.Sprintf("server speaks protocol v%d; first request does not decode: %v", wire.ProtocolVersion, derr)})
				break
			}
			// The frame was intact, so framing is still in sync: fail just
			// this request and keep the connection.
			c.reply(wire.Response{ID: id, Op: wire.OpPing, Err: wire.ErrCodeMalformed, Msg: derr.Error()})
			continue
		}
		// HELLO must be the first request, and is handled inline: a version
		// mismatch, or any other request in its place, answers with the
		// typed code and hangs up (fail-fast — nothing after a failed
		// negotiation can be interpreted safely).
		if !helloed || req.Op == wire.OpHello {
			res := c.srv.handleHello(&req)
			c.reply(res)
			if !res.OK {
				break
			}
			helloed = true
			continue
		}
		switch req.Op {
		case wire.OpGet:
			gets = c.add(gets, &req)
			if len(gets.reqs) >= c.srv.opts.MaxPipeline {
				c.dispatchRun(gets)
				gets = nil
			}
		case wire.OpInsert, wire.OpDelete:
			writes = c.add(writes, &req)
			if len(writes.reqs) >= c.srv.opts.MaxPipeline {
				c.dispatchRun(writes)
				writes = nil
			}
		default:
			c.spawn(c.add(nil, &req))
		}
	}
	// Accepted-but-undispatched runs (the loop broke on drain or a stream
	// error) still get their responses.
	c.dispatchRun(gets)
	c.dispatchRun(writes)
	c.handlers.Wait() // every accepted request gets its response...
	close(c.out)      // ...then the writer sends the last of them and exits
	<-c.wdone
	c.nc.Close() //nolint:errcheck
}

// add appends req to the run b, starting a batch when b is nil, and
// returns the run.
func (c *conn) add(b *batch, req *wire.Request) *batch {
	if b == nil {
		b = c.newBatch()
	}
	b.reqs = append(b.reqs, *req)
	return b
}

// reply queues one response the reader produced itself.
func (c *conn) reply(res wire.Response) {
	b := c.newBatch()
	b.rs = append(b.rs, res)
	c.out <- b
}

// dispatchRun executes a run of pipelined GETs or writes, if there is one.
// A run of either kind takes ONE in-flight slot and ONE handler goroutine.
func (c *conn) dispatchRun(b *batch) {
	if b != nil {
		c.spawn(b)
	}
}

// spawn takes an in-flight slot (blocking the reader is the backpressure)
// and runs b on a handler goroutine, which frees the slot when it has sent
// b's replies. Responses are matched by id, so completion order is free to
// differ from arrival order.
func (c *conn) spawn(b *batch) {
	c.slots <- struct{}{}
	c.handlers.Add(1)
	go b.serve()
}

// handle is a handler goroutine's body: it executes b, hands it to the
// writer, and frees the slot. b belongs to the writer once it is on out. A
// lone GET is a run of one.
func (b *batch) handle() {
	c := b.c
	defer c.handlers.Done()
	switch b.reqs[0].Op {
	case wire.OpInsert, wire.OpDelete:
		c.srv.handleWrites(b)
	case wire.OpGet:
		c.srv.handleGetBatch(b)
	default:
		b.rs = append(b.rs, wire.Response{})
		c.srv.dispatch(c.srv.baseCtx, &b.reqs[0], &b.rs[0])
	}
	c.out <- b
	<-c.slots
}

// handleGetBatch executes a GET run, a lone GET included: one readability
// check and one LookupBatch for the whole run, whose values and found flags
// the writer encodes as a reply per request in arrival order.
func (s *Server) handleGetBatch(b *batch) {
	n := len(b.reqs)
	s.requests.Add(uint64(n))
	s.inFlight.Add(int64(n))
	defer s.inFlight.Add(-int64(n))
	if n > 1 {
		s.getBatches.Add(1)
		s.batchedGets.Add(uint64(n))
	}
	if err := s.readableErr(); err != nil {
		b.rs = resize(b.rs, n)
		for i, req := range b.reqs {
			b.rs[i] = wire.Response{ID: req.ID, Op: req.Op, OK: true}
			s.fail(&b.rs[i], err)
		}
		return
	}
	b.keys, b.vals, b.found = resize(b.keys, n), resize(b.vals, n), resize(b.found, n)
	for i := range b.reqs {
		b.keys[i] = b.reqs[i].Key
	}
	s.ix.LookupBatch(b.keys, b.vals, b.found)
}

// handleWrites executes a write run: one write-gate check, one commit of
// the whole run in arrival order (commitRun), then a reply per request,
// each OK one carrying the commit clock read once after the run, sent to
// the writer together so they leave in one flush.
func (s *Server) handleWrites(b *batch) {
	n := len(b.reqs)
	s.requests.Add(uint64(n))
	s.inFlight.Add(int64(n))
	defer s.inFlight.Add(-int64(n))
	if n > 1 {
		s.writeBatches.Add(1)
		s.batchedWrites.Add(uint64(n))
	}
	b.errs = resize(b.errs, n)
	if err := s.writeGateErr(); err != nil {
		for i := range b.errs {
			b.errs[i] = err
		}
	} else {
		clear(b.errs)
		b.recs = resize(b.recs, n)
		for i := range b.reqs {
			req := &b.reqs[i]
			op := wal.OpInsert
			if req.Op == wire.OpDelete {
				op = wal.OpDelete
			}
			b.recs[i] = wal.Record{Op: op, Key: req.Key, Val: req.Val}
		}
		s.commitRun(b)
	}
	seq := s.ix.CommitSeq()
	b.rs = resize(b.rs, n)
	for i := range b.reqs {
		b.rs[i] = wire.Response{ID: b.reqs[i].ID, Op: b.reqs[i].Op, OK: true}
		if s.fail(&b.rs[i], b.errs[i]).OK {
			b.rs[i].Seq, b.rs[i].HasSeq = seq, true
		}
	}
}

// commitRun commits a write run and sets b.errs[i] to the outcome of
// b.recs[i]. The two handles the server knows commit it as group-commit
// entries (WriteBatchCtx), recognized by type (see Index). Any other Index
// gets one concurrent InsertCtx/DeleteCtx call per record, which its commit
// queue batches as it would any concurrent writers.
func (s *Server) commitRun(b *batch) {
	switch ix := s.ix.(type) {
	case *chameleon.DurableIndex:
		ix.WriteBatchCtx(s.baseCtx, b.recs, b.errs)
	case *chameleon.ShardedIndex:
		ix.WriteBatchCtx(s.baseCtx, b.recs, b.errs)
	default:
		b.next.Store(0)
		b.wg.Add(len(b.recs) - 1)
		for i := 1; i < len(b.recs); i++ {
			go b.commitNext()
		}
		b.errs[0] = s.writeOne(s.baseCtx, b.recs[0])
		b.wg.Wait()
	}
}

// commitOne commits the next record of b's run that no other goroutine of
// commitRun has claimed.
func (b *batch) commitOne() {
	defer b.wg.Done()
	i := b.next.Add(1)
	s := b.c.srv
	b.errs[i] = s.writeOne(s.baseCtx, b.recs[i])
}

// writeOne commits one record through the Index's per-op surface.
func (s *Server) writeOne(ctx context.Context, r wal.Record) error {
	if r.Op == wal.OpDelete {
		return s.ix.DeleteCtx(ctx, r.Key)
	}
	return s.ix.InsertCtx(ctx, r.Key, r.Val)
}

// writer encodes and sends responses, coalescing: it flushes only when the
// queue is momentarily empty, so responses completed close together — a
// run's replies, which arrive as one batch, or several runs acked by one
// group-commit batch — share one syscall. Once it has encoded a batch's
// replies it releases the batch. The write deadline is armed once per
// flush: when a reply lands in an empty buffer, and before a reply that
// would make bufio write on its own. The queue is empty when c.out closes,
// so the last reply was flushed in the loop.
func (c *conn) writer() {
	defer close(c.wdone)
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	var buf []byte
	dead := false
	for b := range c.out {
		for i, n := 0, b.replies(); i < n && !dead; i++ {
			buf = b.appendReply(buf[:0], i)
			if bw.Buffered() == 0 || len(buf) > bw.Available() {
				c.nc.SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck
			}
			if _, err := bw.Write(buf); err != nil {
				dead = true
				c.nc.Close() //nolint:errcheck
			}
		}
		b.release()
		// A dead writer keeps draining so handlers never block on it.
		if !dead && len(c.out) == 0 {
			if err := bw.Flush(); err != nil {
				dead = true
				c.nc.Close() //nolint:errcheck
			}
		}
	}
}

// handleHello answers protocol negotiation. A version mismatch, or a
// request other than HELLO where HELLO must come first, is the one hard
// failure: the typed code goes back and the caller hangs up the connection.
// On success the reply carries the version and, with replication on, the
// node's role and epoch.
func (s *Server) handleHello(req *wire.Request) wire.Response {
	s.requests.Add(1)
	res := wire.Response{ID: req.ID, Op: req.Op, OK: true}
	if req.Op != wire.OpHello || req.Version != wire.ProtocolVersion {
		s.reqErrors.Add(1)
		res.OK = false
		res.Err = wire.ErrCodeVersionMismatch
		res.Msg = fmt.Sprintf("server speaks protocol v%d, client offered v%d", wire.ProtocolVersion, req.Version)
		if req.Op != wire.OpHello {
			res.Msg = fmt.Sprintf("server speaks protocol v%d and requires HELLO first, got %s", wire.ProtocolVersion, req.Op)
		}
		return res
	}
	res.Version = wire.ProtocolVersion
	if s.opts.Repl != nil {
		role, epoch := s.opts.Repl.Role()
		res.Role, res.Epoch = byte(role), epoch
	}
	return res
}

// writeGateErr refuses mutations on a node that is not the primary.
func (s *Server) writeGateErr() error {
	if s.opts.Repl != nil && !s.opts.Repl.AllowWrites() {
		role, epoch := s.opts.Repl.Role()
		return fmt.Errorf("%w: node is %s (epoch %d)", chameleon.ErrNotPrimary, role, epoch)
	}
	return nil
}

// pollCtx bounds a long-poll by the request's WaitMS, capped at maxPullWait
// so a drain never waits behind one.
func (s *Server) pollCtx(ctx context.Context, waitMS uint32) (context.Context, context.CancelFunc, time.Duration) {
	wait := time.Duration(waitMS) * time.Millisecond
	wait = min(wait, maxPullWait)
	if wait <= 0 {
		return ctx, func() {}, 0
	}
	cctx, cancel := context.WithTimeout(ctx, wait+time.Second)
	return cctx, cancel, wait
}

// dispatch executes one request other than GET, INSERT and DELETE (which
// are runs, handleGetBatch and handleWrites) against the index and fills in
// its response.
func (s *Server) dispatch(ctx context.Context, req *wire.Request, res *wire.Response) {
	s.requests.Add(1)
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	*res = wire.Response{ID: req.ID, Op: req.Op, OK: true}
	switch req.Op {
	case wire.OpPing:
	case wire.OpStats:
		res.Stats = s.statsJSON()
	case wire.OpRange:
		if err := s.readableErr(); err != nil {
			s.fail(res, err)
			return
		}
		limit := int(req.Limit)
		if limit <= 0 || limit > rangeLimit {
			limit = rangeLimit
		}
		res.Pairs = make([]wire.Pair, 0, min(limit, 1024))
		s.ix.Range(req.Key, req.Val, func(k, v uint64) bool {
			if len(res.Pairs) == limit {
				res.More = true
				return false
			}
			res.Pairs = append(res.Pairs, wire.Pair{Key: k, Val: v})
			return true
		})
	case wire.OpGetSeq:
		s.handleGetSeq(ctx, req, res)
	case wire.OpReplPull, wire.OpReplSnap, wire.OpReplFence, wire.OpPromote:
		s.handleRepl(ctx, req, res)
	default:
		// DecodeRequest only emits known opcodes; this is future-proofing.
		s.fail(res, wire.ErrMalformed)
	}
}

// handleGetSeq waits (bounded) for the commit clock to reach the requested
// sequence — read-your-writes against a follower. WaitMS 0 is a fail-fast
// probe; a wait that expires surfaces the typed lagging code.
func (s *Server) handleGetSeq(ctx context.Context, req *wire.Request, res *wire.Response) *wire.Response {
	if req.Seq > 0 && s.ix.CommitSeq() < req.Seq {
		wctx, cancel, wait := s.pollCtx(ctx, req.WaitMS)
		if wait <= 0 {
			return s.fail(res, fmt.Errorf("%w: commit seq %d behind requested %d",
				chameleon.ErrReplicaLagging, s.ix.CommitSeq(), req.Seq))
		}
		err := s.waitSeqBounded(wctx, req.Seq, wait)
		cancel()
		if err != nil {
			return s.fail(res, err)
		}
	}
	res.Seq = s.ix.CommitSeq()
	return res
}

// waitSeqBounded runs WaitSeq with a hard deadline, translating expiry into
// the lagging sentinel (the caller asked "are you caught up within d"; "no"
// is a typed answer, not a transport failure).
func (s *Server) waitSeqBounded(ctx context.Context, seq uint64, d time.Duration) error {
	wctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	err := s.ix.WaitSeq(wctx, seq)
	if err != nil && wctx.Err() != nil && ctx.Err() == nil {
		return fmt.Errorf("%w: commit seq %d not reached within %v", chameleon.ErrReplicaLagging, seq, d)
	}
	return err
}

// handleRepl dispatches the replication opcodes into the node.
func (s *Server) handleRepl(ctx context.Context, req *wire.Request, res *wire.Response) *wire.Response {
	node := s.opts.Repl
	if node == nil {
		return s.fail(res, fmt.Errorf("%w: replication not enabled on this server", wire.ErrMalformed))
	}
	switch req.Op {
	case wire.OpReplPull:
		wctx, cancel, wait := s.pollCtx(ctx, req.WaitMS)
		pr, err := node.ServeShardPull(wctx, int(req.Shard), req.Seq, int(req.Limit), wait, req.Epoch, req.WantLayout)
		cancel()
		if err != nil {
			return s.fail(res, err)
		}
		res.FirstSeq, res.Recs = pr.FirstSeq, pr.Recs
		res.UpstreamSeq, res.Epoch = pr.UpstreamSeq, pr.Epoch
		res.SnapshotNeeded = pr.SnapshotNeeded
		res.Bounds, res.HasLayout = pr.Bounds, pr.HasLayout
	case wire.OpReplSnap:
		sr, err := node.ServeShardSnap(int(req.Shard), req.SnapID, req.Seq)
		if err != nil {
			return s.fail(res, err)
		}
		res.SnapID, res.AsOfSeq = sr.SnapID, sr.AsOfSeq
		res.Offset, res.Total, res.Snap = sr.Offset, sr.Total, sr.Data
	case wire.OpReplFence:
		epoch, role, err := node.Fence(req.Epoch)
		if err != nil {
			// The fence holds in memory but was not durably recorded; the
			// fencing caller must not count on it surviving a restart.
			return s.fail(res, err)
		}
		res.Epoch, res.Role = epoch, byte(role)
	case wire.OpPromote:
		epoch, err := node.Promote()
		if err != nil {
			return s.fail(res, err)
		}
		role, _ := node.Role()
		res.Epoch, res.Role = epoch, byte(role)
	}
	return res
}

// readableErr gates the read surface: a closed index must answer "closed",
// not a silent zero value, but a poisoned or degraded one keeps serving
// reads (that is the point of those states).
func (s *Server) readableErr() error {
	if err := s.ix.Err(); err != nil && errors.Is(err, chameleon.ErrIndexClosed) {
		return err
	}
	return nil
}

// writeCode maps a write-path error to its protocol code, upgrading the
// catch-all to "poisoned" when that is what the index's health says.
func (s *Server) writeCode(err error) wire.ErrCode {
	code := wire.CodeFor(err)
	if code == wire.ErrCodeInternal && s.ix.Health().State == chameleon.HealthPoisoned {
		return wire.ErrCodePoisoned
	}
	return code
}

// fail finishes res for err: nil leaves it OK, anything else fills the
// typed error with its retry-after hint.
func (s *Server) fail(res *wire.Response, err error) *wire.Response {
	if err == nil {
		return res
	}
	s.reqErrors.Add(1)
	res.OK = false
	res.Err = s.writeCode(err)
	res.Msg = err.Error()
	switch res.Err {
	case wire.ErrCodeOverloaded:
		res.RetryAfterMS = overloadedRetryMS
	case wire.ErrCodeDiskFull:
		res.RetryAfterMS = diskFullRetryMS
	}
	return res
}

// statsJSON snapshots the index's Health surface plus the server's own
// counters into the STATS schema. Health never blocks behind in-flight
// I/O, so STATS keeps answering while a batch is wedged in a stalled fsync.
func (s *Server) statsJSON() []byte {
	h := s.ix.Health()
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()
	reply := wire.StatsReply{
		State:           h.State.String(),
		Len:             s.ix.Len(),
		WALBytes:        s.ix.WALSize(),
		QueueDepth:      h.QueueDepth,
		QueueHighWater:  h.QueueHighWater,
		ShedOps:         h.ShedOps,
		CancelledOps:    h.CancelledOps,
		Batches:         h.Batches,
		BatchedOps:      h.BatchedOps,
		MaxBatch:        h.MaxBatch,
		DiskFullBatches: h.DiskFullBatches,
		FsyncHist:       h.FsyncLatency[:],
		RetrainPauses:   h.RetrainPauses,
		RetrainPaused:   h.RetrainPaused,
		Conns:           conns,
		TotalConns:      s.totalConns.Load(),
		Requests:        s.requests.Load(),
		ReqErrors:       s.reqErrors.Load(),
		GetBatches:      s.getBatches.Load(),
		BatchedGets:     s.batchedGets.Load(),
		WriteBatches:    s.writeBatches.Load(),
		BatchedWrites:   s.batchedWrites.Load(),
		InFlight:        int(s.inFlight.Load()),
		Draining:        s.draining.Load(),
		UptimeSec:       time.Since(s.start).Seconds(),
	}
	if h.Err != nil {
		reply.Err = h.Err.Error()
	}
	if th := h.Tier; th != nil {
		reply.Tier = &wire.TierStats{
			Segments:          th.Segments,
			L0Segments:        th.L0Segments,
			SegmentBytes:      th.SegmentBytes,
			LiveKeys:          th.LiveKeys,
			MemtableKeys:      th.MemtableKeys,
			DeadKeys:          th.DeadKeys,
			FrozenKeys:        th.FrozenKeys,
			FlushedSeq:        th.FlushedSeq,
			Gen:               th.Gen,
			Flushes:           th.Flushes,
			FlushErrs:         th.FlushErrs,
			Compactions:       th.Compactions,
			CompactErrs:       th.CompactErrs,
			FlushedBytes:      th.FlushedBytes,
			CompactBytes:      th.CompactBytes,
			LastFlushMicros:   th.LastFlushMicros,
			LastCompactMicros: th.LastCompactMicros,
			ColdReads:         th.ColdReads,
			ColdReadErrs:      th.ColdReadErrs,
		}
		if th.LastFlushErr != nil {
			reply.Tier.LastFlushErr = th.LastFlushErr.Error()
		}
	}
	if sh, ok := s.ix.(shardedIndex); ok {
		reply.Shards = sh.Shards()
		for _, shh := range sh.ShardHealths() {
			reply.ShardStates = append(reply.ShardStates, shh.State.String())
		}
	}
	reply.CommitSeq = s.ix.CommitSeq()
	if node := s.opts.Repl; node != nil {
		rh := node.Health()
		merged := chameleon.MergeReplHealth(h, rh)
		reply.ReplRole = rh.Role.String()
		reply.ReplEpoch = rh.Epoch
		reply.ReplState = merged.State.String()
		reply.ReplLastApplied = rh.LastApplied
		reply.ReplUpstreamSeq = rh.UpstreamSeq
		reply.ReplLag = rh.Lag
		reply.ReplAckedSeq = rh.AckedSeq
		reply.ReplConnected = rh.Connected
		reply.ReplReconnects = rh.Reconnects
		reply.ReplSnapshotBootstraps = rh.SnapshotBootstraps
		reply.ReplStalled = rh.Stalled
		reply.ReplDiverged = rh.Diverged
		reply.ReplShardLagSeqs = rh.ShardLags
	}
	for _, b := range chameleon.FsyncBucketBounds {
		reply.FsyncBounds = append(reply.FsyncBounds, b.String())
	}
	data, err := json.Marshal(reply)
	if err != nil { // unreachable: the schema is all marshalable types
		data = []byte(fmt.Sprintf(`{"state":"stats-error","err":%q}`, err))
	}
	return data
}
