package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"chameleon"
)

// ErrNoPrimary is returned when a resolve sweep found no reachable node
// claiming the primary role (and retries were exhausted).
var ErrNoPrimary = errors.New("client: no reachable primary in the pool")

// FailoverOptions tunes a FailoverClient. Addrs is required.
type FailoverOptions struct {
	// Addrs is the candidate pool: every node that might be (or become) the
	// primary. Order is irrelevant; the resolve sweep dials them all.
	Addrs []string
	// Client tunes the per-node connection (pool size, pipeline, timeouts).
	Client Options
	// MaxResolves bounds how many resolve sweeps one operation may burn
	// through before giving up (default 8). Each failed sweep sleeps a
	// full-jitter backoff, so the worst-case stall is roughly the sum of the
	// backoff windows — bounded, never an infinite hang.
	MaxResolves int
	// BackoffMin/BackoffMax bound the full-jitter sleep between resolve
	// sweeps (defaults 25ms and 1s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// logf, when set, receives failover lifecycle events; only tests set it.
	logf func(format string, args ...any)
}

func (o FailoverOptions) withDefaults() FailoverOptions {
	if o.MaxResolves <= 0 {
		o.MaxResolves = 8
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 25 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.logf == nil {
		o.logf = func(string, ...any) {}
	}
	return o
}

// FailoverClient is a client over a pool of replica addresses that follows
// the primary role around: operations run against the node it currently
// believes is primary, and two signals trigger a re-resolve — the typed
// not-primary rejection (the node was deposed or never was primary; the
// write had no durable effect, so re-issuing is safe) and a broken
// connection (the node may be dead; chameleon's mutations are idempotent
// upserts/deletes, so re-issuing an ambiguous-fate write on the new primary
// is also safe — at worst it re-applies a write that already landed).
//
// A resolve sweep dials every address, reads each node's role and epoch from
// HELLO, and adopts the primary with the HIGHEST epoch: during a failover
// window an unfenced old primary and the freshly promoted one can both claim
// the role, and the epoch ordering is exactly what disambiguates them.
// Safe for concurrent use.
type FailoverClient struct {
	opts FailoverOptions

	// failovers counts primary switches, including re-resolves that landed
	// on the same address after a reconnect.
	failovers atomic.Uint64
	closed    atomic.Bool

	mu      sync.Mutex
	cur     *Client
	curAddr string
}

// DialPool builds a FailoverClient and resolves the initial primary.
func DialPool(opts FailoverOptions) (*FailoverClient, error) {
	if len(opts.Addrs) == 0 {
		return nil, errors.New("client: failover pool needs at least one address")
	}
	f := &FailoverClient{opts: opts.withDefaults()}
	ctx, cancel := context.WithTimeout(context.Background(), f.opts.Client.withDefaults().DialTimeout*time.Duration(len(opts.Addrs)))
	defer cancel()
	if _, err := f.primary(ctx); err != nil {
		return nil, err
	}
	return f, nil
}

// Primary reports the address currently believed to host the primary ("" if
// unresolved).
func (f *FailoverClient) Primary() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.curAddr
}

// primary returns the cached primary connection, resolving one if absent.
func (f *FailoverClient) primary(ctx context.Context) (*Client, error) {
	if f.closed.Load() {
		return nil, ErrClientClosed
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		return nil, ErrClientClosed
	}
	if f.cur != nil {
		return f.cur, nil
	}
	c, addr, err := f.resolveLocked(ctx)
	if err != nil {
		return nil, err
	}
	f.cur, f.curAddr = c, addr
	f.failovers.Add(1)
	f.opts.logf("client: primary resolved to %s (epoch %d)", addr, c.ServerEpoch())
	return c, nil
}

// resolveLocked sweeps the pool once: dial everything, keep the
// highest-epoch node claiming primary, close the rest. An equal-epoch tie —
// two nodes both claiming primary at the same epoch, which the failover
// protocol's rank-unique claims should make impossible — is logged loudly
// and broken deterministically by lowest address, so every client that can
// see both nodes converges on the SAME one instead of scattering writes by
// address order.
func (f *FailoverClient) resolveLocked(ctx context.Context) (*Client, string, error) {
	var best *Client
	var bestAddr string
	var lastErr error
	for _, addr := range f.opts.Addrs {
		if ctx.Err() != nil {
			break
		}
		c, err := Dial(addr, f.opts.Client)
		if err != nil {
			lastErr = err
			continue
		}
		if c.ServerRole() == chameleon.RolePrimary {
			switch {
			case best == nil, c.ServerEpoch() > best.ServerEpoch():
				if best != nil {
					best.Close() //nolint:errcheck
				}
				best, bestAddr = c, addr
				continue
			case c.ServerEpoch() == best.ServerEpoch():
				f.opts.logf("client: SPLIT BRAIN SUSPECTED: %s and %s both claim primary at epoch %d; tie-breaking to lowest address",
					bestAddr, addr, c.ServerEpoch())
				if addr < bestAddr {
					best.Close() //nolint:errcheck
					best, bestAddr = c, addr
					continue
				}
			}
		}
		c.Close() //nolint:errcheck
	}
	if best == nil {
		if lastErr != nil {
			return nil, "", fmt.Errorf("%w (last dial error: %v)", ErrNoPrimary, lastErr)
		}
		return nil, "", ErrNoPrimary
	}
	return best, bestAddr, nil
}

// invalidate drops the cached primary if it is still the one the caller
// failed against (a concurrent caller may already have re-resolved).
func (f *FailoverClient) invalidate(c *Client) {
	if c == nil {
		return
	}
	f.mu.Lock()
	if f.cur == c {
		f.cur, f.curAddr = nil, ""
		f.mu.Unlock()
		c.Close() //nolint:errcheck
		return
	}
	f.mu.Unlock()
}

// needsFailover classifies an operation error: true means "the node I talked
// to is not (or no longer) the primary, or may be dead — find the real one".
// A failed redial counts: once the cached conns have seen the hangup, the
// next call redials the dead node instead of failing on a broken conn, and a
// refused dial never sent the request, so re-issuing it elsewhere is safe.
func needsFailover(err error) bool {
	return IsNotPrimary(err) || IsConnBroken(err) || isDialFailure(err)
}

func isDialFailure(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "dial"
}

// withPrimary runs op against the current primary, re-resolving (with
// bounded full-jitter backoff) on not-primary and broken-connection errors.
// Every other error — typed rejections, context expiry — returns unchanged:
// those are answers, not topology changes.
func (f *FailoverClient) withPrimary(ctx context.Context, op func(c *Client) error) error {
	var lastErr error
	for attempt := 0; attempt < f.opts.MaxResolves; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(retryDelay(f.opts.BackoffMin, f.opts.BackoffMax, attempt-1, 0, rand.Int64N))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return fmt.Errorf("%w (last failover error: %v)", ctx.Err(), lastErr)
			}
		}
		c, err := f.primary(ctx)
		if err != nil {
			if errors.Is(err, ErrClientClosed) || ctx.Err() != nil {
				return err
			}
			lastErr = err
			continue
		}
		err = op(c)
		if err == nil || !needsFailover(err) {
			return err
		}
		lastErr = err
		f.opts.logf("client: primary %s rejected/broke (%v); re-resolving", f.Primary(), err)
		f.invalidate(c)
	}
	return fmt.Errorf("client: failover attempts exhausted: %w", lastErr)
}

// Insert adds key→val on the current primary, following the role across
// failovers. A nil return means the write is durable on a node that was
// primary when it acked.
func (f *FailoverClient) Insert(ctx context.Context, key, val uint64) error {
	return f.withPrimary(ctx, func(c *Client) error { return c.Insert(ctx, key, val) })
}

// Close tears down the pool's current connection.
func (f *FailoverClient) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	f.mu.Lock()
	c := f.cur
	f.cur, f.curAddr = nil, ""
	f.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
