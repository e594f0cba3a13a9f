package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"chameleon"
)

// The benchmark binary re-executes itself for every job that must not share
// a process with the load generator: building the data directory, hosting the
// embedded index, verifying a directory after the host stopped, probing the
// layers. A worker reads its job from flags, talks JSON lines on
// stdin/stdout, and logs to stderr.

// buildDir bulk-loads the stream's keys into an empty directory and closes
// it: the durable state every workload starts from.
func buildDir(w *workload, seed uint64, dir string) error {
	s, err := newStream(seed, loadedKeys, w.mix)
	if err != nil {
		return err
	}
	vals := s.values()
	ix, err := chameleon.OpenDir(dir, w.dirOptions())
	if err != nil {
		return err
	}
	if err := ix.BulkLoad(s.keys, vals); err != nil {
		ix.Close() //nolint:errcheck // the bulk-load error is the one to report
		return err
	}
	return ix.Close()
}

// counters is the slice of the host's Health/STATS surface the benchmark
// reads, in one shape for all four workloads.
type counters struct {
	Len            int      `json:"len"`
	Batches        uint64   `json:"batches"`
	BatchedOps     uint64   `json:"batched_ops"`
	QueueHighWater int      `json:"queue_high_water"`
	ShedOps        uint64   `json:"shed_ops"`
	FsyncHist      []uint64 `json:"fsync_hist"`

	// Server side; zero for embedded hosts.
	Requests    uint64 `json:"requests"`
	ReqErrors   uint64 `json:"req_errors"`
	GetBatches  uint64 `json:"get_batches"`
	BatchedGets uint64 `json:"batched_gets"`

	// Tier; zero on the legacy engine.
	Segments     int    `json:"segments"`
	L0Segments   int    `json:"l0_segments"`
	Flushes      uint64 `json:"flushes"`
	Compactions  uint64 `json:"compactions"`
	FlushedBytes uint64 `json:"flushed_bytes"`
	CompactBytes uint64 `json:"compact_bytes"`
	ColdReads    uint64 `json:"cold_reads"`
}

func countersFromHealth(h chameleon.Health, length int) counters {
	c := counters{
		Len:            length,
		Batches:        h.Batches,
		BatchedOps:     h.BatchedOps,
		QueueHighWater: h.QueueHighWater,
		ShedOps:        h.ShedOps,
		FsyncHist:      h.FsyncLatency[:],
	}
	if t := h.Tier; t != nil {
		c.Segments, c.L0Segments = t.Segments, t.L0Segments
		c.Flushes, c.Compactions = t.Flushes, t.Compactions
		c.FlushedBytes, c.CompactBytes = t.FlushedBytes, t.CompactBytes
		c.ColdReads = t.ColdReads
	}
	return c
}

// embedCommand is one line of the embedded worker's stdin.
type embedCommand struct {
	Cmd string `json:"cmd"` // run | counters | stop
	// run: ops [Start, Limit), giving up after TimeoutNS.
	Start     uint64 `json:"start"`
	Limit     uint64 `json:"limit"`
	TimeoutNS int64  `json:"timeout_ns"`
	Trace     bool   `json:"trace"`
}

// embedReply is one line of its stdout. The first line, sent once the
// directory is open and a lookup answered correctly, has only Ready set.
type embedReply struct {
	Ready    bool      `json:"ready,omitempty"`
	Window   *window   `json:"window,omitempty"`
	Counters *counters `json:"counters,omitempty"`
	Err      string    `json:"err,omitempty"`
}

// embedWorker hosts the index for an embedded workload: it opens dir, then
// runs windows of the op stream on command, one caller goroutine, until told
// to stop (checkpoint and close, as chameleon-serve's drain does).
func embedWorker(w *workload, seed uint64, dir string, in io.Reader, out io.Writer) error {
	s, err := newStream(seed, loadedKeys, w.mix)
	if err != nil {
		return err
	}
	ix, err := chameleon.OpenDir(dir, w.dirOptions())
	if err != nil {
		return err
	}
	defer ix.Close() //nolint:errcheck // error paths only; "stop" checks Close
	enc := json.NewEncoder(out)
	first := s.stable(0)
	if v, ok := ix.Lookup(first); !ok || v != first^valueSalt {
		return fmt.Errorf("first lookup after open: got (%#x, %v) for key %d", v, ok, first)
	}
	if err := enc.Encode(embedReply{Ready: true}); err != nil {
		return err
	}

	t := embedTarget{ix}
	dec := json.NewDecoder(bufio.NewReader(in))
	for {
		var cmd embedCommand
		if err := dec.Decode(&cmd); err != nil {
			return fmt.Errorf("reading command: %w", err) // the driver went away without "stop"
		}
		var reply embedReply
		switch cmd.Cmd {
		case "run":
			var tr *tracer
			if cmd.Trace {
				tr = newTracer()
				tr.names = &durableNames
				tr.start()
			}
			reply.Window = runWindow(t, s, embedCallers, cmd.Start, cmd.Limit, time.Duration(cmd.TimeoutNS), tr)
			if tr != nil {
				tr.stop()
				reply.Window.Spans = tr.resolve().spans
			}
		case "counters":
			c := countersFromHealth(ix.Health(), ix.Len())
			reply.Counters = &c
		case "stop":
			if err := ix.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			if err := ix.Close(); err != nil {
				return fmt.Errorf("close: %w", err)
			}
			return enc.Encode(embedReply{})
		default:
			reply.Err = "unknown command " + cmd.Cmd
		}
		if err := enc.Encode(reply); err != nil {
			return err
		}
	}
}

// verifyReport is what the verifier finds in a directory after a graceful
// stop.
type verifyReport struct {
	Len     int    `json:"len"`
	Checked uint64 `json:"checked"`
	Failed  uint64 `json:"failed"`
	Failure string `json:"failure,omitempty"`
}

// verifySample is how many acknowledged inserts, and how many acknowledged
// deletes, the verifier re-reads (fewer if the run made fewer).
const verifySample = 10_000

// verifyDir reopens dir and re-reads a seeded sample of the writes and
// deletes that ops [0, next) of the stream made and the host acknowledged:
// surviving inserts must be present with their value, deleted keys absent.
func verifyDir(w *workload, seed uint64, dir string, next uint64) (verifyReport, error) {
	var rep verifyReport
	s, err := newStream(seed, loadedKeys, w.mix)
	if err != nil {
		return rep, err
	}
	ix, err := chameleon.OpenDir(dir, w.dirOptions())
	if err != nil {
		return rep, err
	}
	defer ix.Close() //nolint:errcheck // read-only use
	rep.Len = ix.Len()
	t := embedTarget{ix}
	check := func(o op) {
		rep.Checked++
		if msg := do(t, o); msg != "" {
			if rep.Failed == 0 {
				rep.Failure = "after restart: " + msg
			}
			rep.Failed++
		}
	}
	ins, del := s.count(opInsert, next), s.count(opDelete, next)
	// Fresh keys [firstLive, ins) were inserted and not deleted since.
	var firstLive uint64
	if del > s.lag {
		firstLive = del - s.lag
	}
	for j := uint64(0); j < verifySample && ins > firstLive; j++ {
		key, _ := s.fresh(firstLive + mix64(seed^j<<1)%(ins-firstLive))
		check(op{kind: opGet, key: key, present: true})
	}
	for j := uint64(0); j < verifySample && del > 0; j++ {
		check(op{kind: opGet, key: s.deleted(mix64(seed^(j<<1|1)) % del)})
	}
	// The loaded keys nobody deletes are still there too.
	for j := uint64(0); j < verifySample; j++ {
		check(op{kind: opGet, key: s.stable(mix64(seed + j)), present: true})
	}
	wantLen := len(s.keys) + int(ins) - int(del)
	if rep.Len != wantLen {
		if rep.Failed == 0 {
			rep.Failure = fmt.Sprintf("after restart: %d live keys, want %d", rep.Len, wantLen)
		}
		rep.Failed++
	}
	rep.Checked++
	return rep, nil
}

// workerMain runs one worker role and returns the process exit code.
func workerMain(role string, w *workload, seed uint64, dir string, next uint64, batch int) int {
	var err error
	switch role {
	case "build":
		err = buildDir(w, seed, dir)
	case "embed":
		err = embedWorker(w, seed, dir, os.Stdin, os.Stdout)
	case "verify":
		var rep verifyReport
		if rep, err = verifyDir(w, seed, dir, next); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(rep)
		}
	case "layers":
		var m map[string]float64
		if m, err = probeLayers(w, seed, dir, batch); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(m)
		}
	default:
		err = fmt.Errorf("unknown role %q", role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "chameleon-benchmark %s: %v\n", role, err)
		return 1
	}
	return 0
}
