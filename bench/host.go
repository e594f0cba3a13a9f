package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"

	"chameleon"
	"chameleon/internal/client"
	"chameleon/internal/server"
)

// host is whatever holds the index during a run: a chameleon-serve child, a
// re-exec'd embedded worker, or (traced remote runs only) a server inside
// this process.
type host interface {
	// pid is the process whose CPU, memory and writes are the run's cost.
	pid() int
	// run issues ops [start, limit) of the stream, giving up after timeout,
	// and checks every reply.
	run(start, limit uint64, timeout time.Duration, tr *tracer) (*window, error)
	counters() (counters, error)
	// stop is the graceful stop: drain, checkpoint, close; the process, if
	// any, has exited when it returns.
	stop() error
	// kill drops the host without ceremony (abandoned set-up rounds, errors).
	kill()
}

// children tracks every process the benchmark started so that all of them
// are killed and reaped on any exit path, the hard timeout included.
type children struct {
	mu   sync.Mutex
	cmds map[*exec.Cmd]struct{}
}

// start runs cmd on cpus; own is the calling process's own CPU set.
func (c *children) start(cmd *exec.Cmd, cpus, own []int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := startPinned(cmd, cpus, own); err != nil {
		return err
	}
	if c.cmds == nil {
		c.cmds = make(map[*exec.Cmd]struct{})
	}
	c.cmds[cmd] = struct{}{}
	return nil
}

// wait reaps cmd.
func (c *children) wait(cmd *exec.Cmd) error {
	err := cmd.Wait()
	c.mu.Lock()
	delete(c.cmds, cmd)
	c.mu.Unlock()
	return err
}

func (c *children) kill(cmd *exec.Cmd) {
	cmd.Process.Kill() //nolint:errcheck // already gone is fine
	c.wait(cmd)        //nolint:errcheck // killed on purpose
}

func (c *children) killAll() {
	c.mu.Lock()
	var cmds []*exec.Cmd
	for cmd := range c.cmds {
		cmds = append(cmds, cmd)
	}
	c.mu.Unlock()
	for _, cmd := range cmds {
		c.kill(cmd)
	}
}

// env carries what every step of a run needs.
type env struct {
	ctx      context.Context // expires at the run's hard timeout
	self     string          // this binary, for re-exec
	serveBin string          // cmd/chameleon-serve, built by run.sh
	kids     *children
	// cpus is every CPU the benchmark may use; own is where this process
	// itself runs (cpus, or just the first one for the remote load generator).
	cpus, own []int
}

// hostCPUs is where the process holding the index runs, and its GOMAXPROCS:
// every CPU for an embedded worker; for a server all but the first, which the
// load generator keeps to itself.
func (e *env) hostCPUs(w *workload) []int {
	if w.remote && len(e.cpus) > 1 {
		return e.cpus[1:]
	}
	return e.cpus
}

// start runs a child process on cpus.
func (e *env) start(cmd *exec.Cmd, cpus []int) error { return e.kids.start(cmd, cpus, e.own) }

// reap waits for a child to exit by itself, killing it at the run's hard
// timeout.
func (e *env) reap(cmd *exec.Cmd) error {
	done := make(chan error, 1)
	go func() { done <- e.kids.wait(cmd) }()
	select {
	case err := <-done:
		return err
	case <-e.ctx.Done():
		cmd.Process.Kill() //nolint:errcheck // reaped by the goroutine above
		<-done
		return e.ctx.Err()
	}
}

// worker starts this binary in a worker role.
func (e *env) worker(role string, w *workload, seed uint64, dir string, extra ...string) *exec.Cmd {
	args := append([]string{"-role", role, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-dir", dir}, extra...)
	cmd := exec.Command(e.self, args...)
	cmd.Stderr = os.Stderr
	return cmd
}

// runWorker runs a worker to completion and decodes its one-line JSON reply
// into out (nil: no reply expected).
func (e *env) runWorker(out any, role string, w *workload, seed uint64, dir string, extra ...string) error {
	cmd := e.worker(role, w, seed, dir, extra...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := e.start(cmd, e.cpus); err != nil {
		return err
	}
	if err := e.reap(cmd); err != nil {
		return fmt.Errorf("%s worker: %w", role, err)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return fmt.Errorf("%s worker reply: %w", role, err)
	}
	return nil
}

// embedHost is the embedded worker child, driven over its stdin/stdout.
type embedHost struct {
	e   *env
	cmd *exec.Cmd
	in  io.WriteCloser
	out *json.Decoder
}

func startEmbedHost(e *env, w *workload, seed uint64, dir string) (*embedHost, error) {
	cmd := e.worker("embed", w, seed, dir)
	cpus := e.hostCPUs(w)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", len(cpus)))
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := e.start(cmd, cpus); err != nil {
		return nil, err
	}
	h := &embedHost{e: e, cmd: cmd, in: in, out: json.NewDecoder(bufio.NewReader(out))}
	reply, err := h.read()
	if err == nil && !reply.Ready {
		err = errors.New("embedded worker did not report ready")
	}
	if err != nil {
		h.kill()
		return nil, err
	}
	return h, nil
}

// read takes the worker's next reply, giving up at the run's hard timeout.
func (h *embedHost) read() (embedReply, error) {
	type result struct {
		reply embedReply
		err   error
	}
	ch := make(chan result, 1)
	go func() {
		var r result
		r.err = h.out.Decode(&r.reply)
		ch <- r
	}()
	select {
	case r := <-ch:
		if r.err == nil && r.reply.Err != "" {
			r.err = errors.New(r.reply.Err)
		}
		if r.err != nil {
			r.err = fmt.Errorf("embedded worker: %w", r.err)
		}
		return r.reply, r.err
	case <-h.e.ctx.Done():
		h.cmd.Process.Kill() //nolint:errcheck // unblocks the decoder; kill() reaps
		<-ch
		return embedReply{}, fmt.Errorf("embedded worker: %w", h.e.ctx.Err())
	}
}

func (h *embedHost) call(cmd embedCommand) (embedReply, error) {
	if err := json.NewEncoder(h.in).Encode(cmd); err != nil {
		return embedReply{}, fmt.Errorf("embedded worker: %w", err)
	}
	return h.read()
}

func (h *embedHost) pid() int { return h.cmd.Process.Pid }

func (h *embedHost) run(start, limit uint64, timeout time.Duration, tr *tracer) (*window, error) {
	reply, err := h.call(embedCommand{Cmd: "run", Start: start, Limit: limit, TimeoutNS: timeout.Nanoseconds(), Trace: tr != nil})
	if err != nil {
		return nil, err
	}
	if reply.Window == nil {
		return nil, errors.New("embedded worker: run reply without a window")
	}
	return reply.Window, nil
}

func (h *embedHost) counters() (counters, error) {
	reply, err := h.call(embedCommand{Cmd: "counters"})
	if err != nil {
		return counters{}, err
	}
	if reply.Counters == nil {
		return counters{}, errors.New("embedded worker: counters reply without counters")
	}
	return *reply.Counters, nil
}

func (h *embedHost) stop() error {
	_, err := h.call(embedCommand{Cmd: "stop"})
	h.in.Close() //nolint:errcheck // the worker has exited or is being killed
	if err != nil {
		h.kill()
		return err
	}
	return h.e.reap(h.cmd)
}

func (h *embedHost) kill() { h.e.kids.kill(h.cmd) }

// clientHost is a host reached through internal/client: the load generator's
// side of both remote hosts.
type clientHost struct {
	e *env
	s *stream
	c *client.Client
}

func dialHost(e *env, s *stream, addr string) (*clientHost, error) {
	c, err := client.Dial(addr, client.Options{Conns: remoteConns, MaxPipeline: remoteDepth, MaxRetries: 2})
	if err != nil {
		return nil, err
	}
	h := &clientHost{e: e, s: s, c: c}
	first := s.stable(0)
	if msg := do(remoteTarget{e.ctx, c}, op{kind: opGet, key: first, present: true}); msg != "" {
		c.Close() //nolint:errcheck // the failed reply is the error
		return nil, errors.New("first reply: " + msg)
	}
	return h, nil
}

func (h *clientHost) run(start, limit uint64, timeout time.Duration, tr *tracer) (*window, error) {
	return runWindow(remoteTarget{h.e.ctx, h.c}, h.s, remoteConns*remoteDepth, start, limit, timeout, tr), nil
}

func (h *clientHost) counters() (counters, error) {
	st, _, err := h.c.Stats(h.e.ctx)
	if err != nil {
		return counters{}, err
	}
	c := counters{
		Len: st.Len, Batches: st.Batches, BatchedOps: st.BatchedOps, QueueHighWater: st.QueueHighWater,
		ShedOps: st.ShedOps, FsyncHist: st.FsyncHist,
		Requests: st.Requests, ReqErrors: st.ReqErrors, GetBatches: st.GetBatches, BatchedGets: st.BatchedGets,
	}
	if t := st.Tier; t != nil {
		c.Segments, c.L0Segments = t.Segments, t.L0Segments
		c.Flushes, c.Compactions = t.Flushes, t.Compactions
		c.FlushedBytes, c.CompactBytes = t.FlushedBytes, t.CompactBytes
		c.ColdReads = t.ColdReads
	}
	return c, nil
}

// serveHost is a cmd/chameleon-serve child.
type serveHost struct {
	*clientHost
	cmd *exec.Cmd
}

var listeningOn = regexp.MustCompile(`listening on (\S+)`)

func startServeHost(e *env, w *workload, s *stream, dir string) (*serveHost, error) {
	cmd := exec.Command(e.serveBin, w.serveArgs(dir)...)
	cpus := e.hostCPUs(w)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", len(cpus)))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := e.start(cmd, cpus); err != nil {
		return nil, err
	}
	// The server prints its address once the directory is recovered; the
	// rest of its stdout (drain messages) is of no interest.
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if m := listeningOn.FindStringSubmatch(sc.Text()); m != nil {
				addrc <- m[1]
				break
			}
		}
		io.Copy(io.Discard, out) //nolint:errcheck // draining until the child exits
		close(addrc)
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-e.ctx.Done():
	}
	if addr == "" {
		e.kids.kill(cmd)
		return nil, errors.New("chameleon-serve did not announce its address")
	}
	ch, err := dialHost(e, s, addr)
	if err != nil {
		e.kids.kill(cmd)
		return nil, err
	}
	return &serveHost{clientHost: ch, cmd: cmd}, nil
}

func (h *serveHost) pid() int { return h.cmd.Process.Pid }

func (h *serveHost) stop() error {
	h.c.Close() //nolint:errcheck // nothing in flight
	if err := h.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		h.e.kids.kill(h.cmd)
		return err
	}
	if err := h.e.reap(h.cmd); err != nil {
		return fmt.Errorf("chameleon-serve drain: %w", err)
	}
	return nil
}

func (h *serveHost) kill() {
	h.c.Close() //nolint:errcheck // dropping the host
	h.e.kids.kill(h.cmd)
}

// inprocHost is the traced remote host: the same server and client over
// loopback, but inside this process, serving a tracedIndex so the time spent
// in the index can be told from the time spent around it.
type inprocHost struct {
	*clientHost
	ix  *chameleon.DurableIndex
	srv *server.Server
}

func startInprocHost(e *env, w *workload, s *stream, dir string, tr *tracer) (*inprocHost, error) {
	ix, err := chameleon.OpenDir(dir, w.dirOptions())
	if err != nil {
		return nil, err
	}
	srv := server.New(&tracedIndex{DurableIndex: ix, tr: tr}, server.Options{MaxPipeline: 128, OwnsIndex: true})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		ix.Close() //nolint:errcheck // the listen error is the one to report
		return nil, err
	}
	go srv.Serve() //nolint:errcheck // ends when stop or kill closes the listener
	ch, err := dialHost(e, s, srv.Addr().String())
	if err != nil {
		srv.Close() //nolint:errcheck // the dial error is the one to report
		ix.Close()  //nolint:errcheck
		return nil, err
	}
	return &inprocHost{clientHost: ch, ix: ix, srv: srv}, nil
}

func (h *inprocHost) pid() int { return os.Getpid() }

func (h *inprocHost) stop() error {
	h.c.Close() //nolint:errcheck // nothing in flight
	return h.srv.Shutdown(h.e.ctx)
}

func (h *inprocHost) kill() {
	h.c.Close()   //nolint:errcheck // dropping the host
	h.srv.Close() //nolint:errcheck
	h.ix.Close()  //nolint:errcheck
}
