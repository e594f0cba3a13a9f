package client

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/wire"
)

// roleServer is a fakeServer that answers HELLO with a switchable
// role/epoch and rejects mutations with not-primary unless it currently
// claims the primary role — the minimal topology actor for failover tests.
type roleServer struct {
	fs      *fakeServer
	role    atomic.Uint32
	epoch   atomic.Uint64
	seq     atomic.Uint64
	inserts atomic.Uint64
}

func newRoleServer(t *testing.T, role chameleon.ReplRole, epoch uint64) *roleServer {
	t.Helper()
	rs := &roleServer{}
	rs.role.Store(uint32(role))
	rs.epoch.Store(epoch)
	rs.fs = newFakeServer(t, func(req *wire.Request) *wire.Response {
		switch req.Op {
		case wire.OpHello:
			return &wire.Response{Op: req.Op, OK: true,
				Version: wire.ProtocolVersion,
				Role:    byte(rs.role.Load()),
				Epoch:   rs.epoch.Load(),
			}
		case wire.OpInsert, wire.OpDelete:
			if chameleon.ReplRole(rs.role.Load()) != chameleon.RolePrimary {
				return &wire.Response{Op: req.Op, Err: wire.ErrCodeNotPrimary}
			}
			rs.inserts.Add(1)
			return &wire.Response{Op: req.Op, OK: true, HasSeq: true, Seq: rs.seq.Add(1)}
		default:
			return okFor(req)
		}
	})
	return rs
}

func (rs *roleServer) addr() string { return rs.fs.ln.Addr().String() }

func (rs *roleServer) setRole(role chameleon.ReplRole, epoch uint64) {
	rs.epoch.Store(epoch)
	rs.role.Store(uint32(role))
}

// TestNotPrimaryNotRetriedInPlace: the not-primary rejection must burn
// exactly one attempt — retrying against the same node cannot succeed (the
// node is a follower or fenced until topology changes), so a plain Client
// surfaces it immediately even with a generous retry budget.
func TestNotPrimaryNotRetriedInPlace(t *testing.T) {
	rs := newRoleServer(t, chameleon.RoleFollower, 1)
	c, err := Dial(rs.addr(), Options{MaxRetries: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	err = c.Insert(context.Background(), 1, 2)
	if !errors.Is(err, chameleon.ErrNotPrimary) {
		t.Fatalf("Insert on follower: %v, want ErrNotPrimary", err)
	}
	if !IsNotPrimary(err) {
		t.Fatalf("IsNotPrimary(%v) = false", err)
	}
	if got := rs.fs.requests.Load(); got != 3 { // hello + ping + exactly 1 attempt
		t.Fatalf("server saw %d requests, want 3 (no in-place retry)", got)
	}
	if role := c.ServerRole(); role != chameleon.RoleFollower {
		t.Fatalf("ServerRole = %v, want follower", role)
	}
}

// TestFailoverClientFollowsPrimary: the pool starts on node A (primary,
// epoch 1); A is deposed and B promoted (epoch 2); the next write must get
// A's not-primary rejection, re-resolve, land on B, and succeed — with the
// read-your-writes watermark carried across the switch.
func TestFailoverClientFollowsPrimary(t *testing.T) {
	a := newRoleServer(t, chameleon.RolePrimary, 1)
	b := newRoleServer(t, chameleon.RoleFollower, 1)
	f, err := DialPool(FailoverOptions{Addrs: []string{a.addr(), b.addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	ctx := context.Background()

	if got := f.Primary(); got != a.addr() {
		t.Fatalf("initial primary %q, want %q", got, a.addr())
	}
	for i := uint64(1); i <= 5; i++ {
		if err := f.Insert(ctx, i, i); err != nil {
			t.Fatal(err)
		}
	}
	// Failover: B takes over at a higher epoch, A is fenced.
	b.setRole(chameleon.RolePrimary, 2)
	a.setRole(chameleon.RoleFenced, 2)

	if err := f.Insert(ctx, 100, 100); err != nil {
		t.Fatalf("Insert across failover: %v", err)
	}
	if got := f.Primary(); got != b.addr() {
		t.Fatalf("post-failover primary %q, want %q", got, b.addr())
	}
	if f.failovers.Load() < 2 { // initial resolve + the switch
		t.Fatalf("Failovers = %d, want >= 2", f.failovers.Load())
	}
	if b.inserts.Load() != 1 {
		t.Fatalf("B saw %d inserts, want 1", b.inserts.Load())
	}
}

// TestFailoverClientSwitchesOnDeadConn: a primary that drops off the network
// (broken connection, not a typed rejection) triggers the same re-resolve.
func TestFailoverClientSwitchesOnDeadConn(t *testing.T) {
	a := newRoleServer(t, chameleon.RolePrimary, 1)
	b := newRoleServer(t, chameleon.RoleFollower, 1)
	f, err := DialPool(FailoverOptions{Addrs: []string{a.addr(), b.addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	ctx := context.Background()
	if err := f.Insert(ctx, 1, 1); err != nil {
		t.Fatal(err)
	}

	a.fs.kill() // A dies; the pool's cached conns break on next use
	b.setRole(chameleon.RolePrimary, 2)
	if err := f.Insert(ctx, 2, 2); err != nil {
		t.Fatalf("Insert across dead-primary failover: %v", err)
	}
	if got := f.Primary(); got != b.addr() {
		t.Fatalf("post-failover primary %q, want %q", got, b.addr())
	}
}

// TestFailoverClientSwitchesOnRefusedRedial: when the dead primary's cached
// connections have already noticed the hangup before the next call, that
// call does not fail on a broken conn. It redials and the dial is refused.
// A refused redial must trigger the same re-resolve. Otherwise the pool stays
// pinned to a dead address and never finds the new primary.
func TestFailoverClientSwitchesOnRefusedRedial(t *testing.T) {
	a := newRoleServer(t, chameleon.RolePrimary, 1)
	b := newRoleServer(t, chameleon.RoleFollower, 1)
	f, err := DialPool(FailoverOptions{Addrs: []string{a.addr(), b.addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	ctx := context.Background()
	if err := f.Insert(ctx, 1, 1); err != nil {
		t.Fatal(err)
	}

	a.fs.kill()
	cached := f.cur
	deadline := time.Now().Add(5 * time.Second)
	for !allConnsBroken(cached) {
		if time.Now().After(deadline) {
			t.Fatal("cached conns never observed the dead primary")
		}
		time.Sleep(time.Millisecond)
	}
	b.setRole(chameleon.RolePrimary, 2)
	if err := f.Insert(ctx, 2, 2); err != nil {
		t.Fatalf("Insert after a refused redial: %v", err)
	}
	if got := f.Primary(); got != b.addr() {
		t.Fatalf("post-failover primary %q, want %q", got, b.addr())
	}
}

// allConnsBroken reports whether every dialed slot of c has failed.
func allConnsBroken(c *Client) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cn := range c.conns {
		if cn != nil && cn.broken() == nil {
			return false
		}
	}
	return true
}

// TestFailoverClientHighestEpochWins: during the split-brain window both
// nodes claim primary; the pool must side with the higher epoch — that node
// provably promoted later, and its epoch is what fences the other.
func TestFailoverClientHighestEpochWins(t *testing.T) {
	a := newRoleServer(t, chameleon.RolePrimary, 3)
	b := newRoleServer(t, chameleon.RolePrimary, 5)
	f, err := DialPool(FailoverOptions{Addrs: []string{a.addr(), b.addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	if got := f.Primary(); got != b.addr() {
		t.Fatalf("resolved %q, want the higher-epoch %q", got, b.addr())
	}
}

// TestFailoverClientNoPrimary: a pool of followers exhausts its bounded
// resolve budget and reports ErrNoPrimary rather than hanging.
func TestFailoverClientNoPrimary(t *testing.T) {
	a := newRoleServer(t, chameleon.RoleFollower, 1)
	_, err := DialPool(FailoverOptions{
		Addrs:      []string{a.addr()},
		BackoffMin: 1, BackoffMax: 1,
	})
	if !errors.Is(err, ErrNoPrimary) {
		t.Fatalf("DialPool over followers: %v, want ErrNoPrimary", err)
	}
}

// TestFailoverClientNonTopologyErrorsPassThrough: a typed rejection that is
// not about topology (duplicate key) must come back unchanged on the first
// attempt — the pool only chases role changes, it never papers over answers.
func TestFailoverClientNonTopologyErrorsPassThrough(t *testing.T) {
	rs := &roleServer{}
	rs.role.Store(uint32(chameleon.RolePrimary))
	rs.epoch.Store(1)
	rs.fs = newFakeServer(t, func(req *wire.Request) *wire.Response {
		switch req.Op {
		case wire.OpHello:
			return &wire.Response{Op: req.Op, OK: true,
				Version: wire.ProtocolVersion,
				Role:    byte(rs.role.Load()), Epoch: rs.epoch.Load()}
		case wire.OpInsert:
			return &wire.Response{Op: req.Op, Err: wire.ErrCodeDuplicateKey}
		default:
			return okFor(req)
		}
	})
	f, err := DialPool(FailoverOptions{Addrs: []string{rs.addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	if err := f.Insert(context.Background(), 1, 1); !errors.Is(err, chameleon.ErrDuplicateKey) {
		t.Fatalf("Insert: %v, want ErrDuplicateKey", err)
	}
	if f.failovers.Load() != 1 { // the initial resolve only
		t.Fatalf("Failovers = %d, want 1", f.failovers.Load())
	}
}

// TestEqualEpochTieBreakDeterministic: an equal-epoch dual claim (a state
// the failover protocol's rank-unique claims should preclude, but which a
// client must still survive) is broken by lowest address, NOT by Addrs
// order — so every client converges on the same node instead of scattering
// writes by the order its pool happened to be configured in.
func TestEqualEpochTieBreakDeterministic(t *testing.T) {
	a := newRoleServer(t, chameleon.RolePrimary, 7)
	b := newRoleServer(t, chameleon.RolePrimary, 7)
	want := a.addr()
	if b.addr() < want {
		want = b.addr()
	}
	for _, addrs := range [][]string{
		{a.addr(), b.addr()},
		{b.addr(), a.addr()},
	} {
		var warned atomic.Bool
		f, err := DialPool(FailoverOptions{Addrs: addrs, logf: func(format string, _ ...any) {
			if strings.Contains(format, "SPLIT BRAIN") {
				warned.Store(true)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Primary(); got != want {
			t.Fatalf("pool %v resolved %q, want lowest address %q", addrs, got, want)
		}
		if !warned.Load() {
			t.Fatal("equal-epoch dual primary resolved without a split-brain warning")
		}
		f.Close() //nolint:errcheck
	}
}
