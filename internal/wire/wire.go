// Package wire is the binary protocol spoken between the Chameleon server
// and its clients. It is the one codec both sides share: the server decodes
// requests with exactly the functions the client uses to decode responses,
// so a frame either round-trips or is rejected identically everywhere.
//
// Frame format (all little-endian), deliberately the same envelope as the
// WAL's — length-prefixed and CRC-checked so a torn or corrupted stream is
// detected at the frame boundary, never half-decoded:
//
//	[4] payload length
//	[4] CRC32C of the payload (Castagnoli)
//	[n] payload: [1] type  [8] request id  [...] body
//
// The type byte is an opcode (client→server) or a status (server→client).
// Request ids are chosen by the client and echoed verbatim in the matching
// response; they are what makes pipelining work — responses may return in
// any order, and the id is the only correlation. Id 0 is reserved for
// connection-level errors the server must report before any request id is
// known (connection limit reached, unframeable input).
//
// The decoder is hostile-input safe by construction: the length prefix is
// bounded by MaxFrame before any allocation, every embedded count is
// validated against the bytes actually present before a slice is sized from
// it, and every decode error is a value, never a panic. FuzzDecodeFrame
// holds it to that.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"chameleon/internal/wal"
)

// Op tags a request frame.
type Op byte

const (
	// OpGet looks up one key. Body: [8] key.
	OpGet Op = 0x01
	// OpInsert inserts key→val. Body: [8] key [8] val.
	OpInsert Op = 0x02
	// OpDelete removes a key. Body: [8] key.
	OpDelete Op = 0x03
	// OpRange scans [lo, hi] ascending. Body: [8] lo [8] hi [4] limit
	// (0 = server default cap).
	OpRange Op = 0x04
	// Byte 0x05 carried protocol v3's BATCH; it is retired and decodes as
	// an unknown opcode.

	// OpStats asks for the server's health/counter snapshot. No body.
	OpStats Op = 0x06
	// OpPing is a liveness no-op. No body.
	OpPing Op = 0x07
	// OpHello opens every connection with the protocol version; see
	// hello.go. Body: [2] version. Reply body: [2] version [1] role
	// [8] epoch.
	OpHello Op = 0x08

	// The REPL_* family is the replication stream; see internal/repl. It is
	// served iff the server runs replication. The two bytes below
	// OpReplFence carried protocol v2's unsharded pull and snapshot ops;
	// they are retired and decode as unknown opcodes.

	// OpReplFence tells a node a higher epoch exists: it must stop acting
	// as primary. Body: [8] epoch. Reply body: [8] epoch [1] role.
	OpReplFence Op = 0x12
	// OpPromote makes a follower the new primary (epoch+1) — the admin
	// failover op. No body. Reply body: [8] epoch [1] role.
	OpPromote Op = 0x13
	// OpGetSeq reports the node's commit sequence, optionally waiting until
	// it reaches a target (the read-your-writes wait). Body: [8] seq
	// (0 = no wait) [4] waitMS. Reply body: [8] seq.
	OpGetSeq Op = 0x14

	// OpReplPull asks the primary for one shard's committed records (an
	// unsharded node is shard 0 of one). Body: [4] shard [8] fromSeq [4] max
	// [4] waitMS [8] epoch (the puller's view of the primary epoch; 0 =
	// unknown) [1] send-layout (0 or 1). The pull doubles as the
	// acknowledgement: asking from fromSeq confirms everything below it is
	// applied. Reply body: [8] firstSeq [8] upstreamSeq [8] epoch [1] flags
	// (bit0 = snapshot-needed: fromSeq predates retention or a replace,
	// bit1 = layout attached) [4] count, count × ([1] op [8] key [8] val);
	// when bit1 is set the records are followed by [4] nbounds, nbounds × [8]
	// bound — the primary's current shard boundaries. The primary attaches
	// them when asked, to every snapshot-needed reply, and to a pull for a
	// shard it lacks, so re-sharding and layout mismatches travel the
	// stream.
	OpReplPull Op = 0x15
	// OpReplSnap streams a bootstrap snapshot chunk for one shard. Body:
	// [4] shard [8] snapID (0 = open a fresh snapshot) [8] offset. Reply
	// body: [8] snapID [8] asOfSeq [8] offset [8] total [4] len, [len] chunk
	// bytes.
	OpReplSnap Op = 0x16
)

// String names the opcode for errors and traces.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpInsert:
		return "INSERT"
	case OpDelete:
		return "DELETE"
	case OpRange:
		return "RANGE"
	case OpStats:
		return "STATS"
	case OpPing:
		return "PING"
	case OpHello:
		return "HELLO"
	case OpReplPull:
		return "REPL_PULL"
	case OpReplSnap:
		return "REPL_SNAP"
	case OpReplFence:
		return "REPL_FENCE"
	case OpPromote:
		return "PROMOTE"
	case OpGetSeq:
		return "GET_SEQ"
	}
	return fmt.Sprintf("Op(0x%02x)", byte(o))
}

// Response status bytes. Statuses and opcodes share the type byte's number
// space but never its values: the high bit marks a response.
const (
	statusOK  byte = 0x80
	statusErr byte = 0x81
)

// ErrCode classifies a rejected request. Codes, not strings, are the
// contract: clients branch on the code and treat the message as opaque.
type ErrCode byte

const (
	// ErrCodeNone is the zero code of a successful response.
	ErrCodeNone ErrCode = 0
	// ErrCodeOverloaded: the server shed the mutation at admission
	// (group-commit queue full). Nothing was logged or applied; retry after
	// the hinted delay.
	ErrCodeOverloaded ErrCode = 1
	// ErrCodeDiskFull: the WAL's disk is full. The mutation was cleanly
	// rejected; the index is degraded-read-only until space frees.
	ErrCodeDiskFull ErrCode = 2
	// ErrCodeClosed: the index (or server) is shut down or draining.
	ErrCodeClosed ErrCode = 3
	// ErrCodePoisoned: the index fail-stopped (memory and disk may
	// diverge). Writes are refused until the operator re-opens.
	ErrCodePoisoned ErrCode = 4
	// ErrCodeDuplicateKey: INSERT of a present key.
	ErrCodeDuplicateKey ErrCode = 5
	// ErrCodeKeyNotFound: DELETE of an absent key.
	ErrCodeKeyNotFound ErrCode = 6
	// ErrCodeMalformed: the request decoded as garbage (bad count, short
	// body, unknown opcode). The connection survives — framing was intact.
	ErrCodeMalformed ErrCode = 7
	// ErrCodeCancelled: the server abandoned the op before it had any
	// durable effect (deadline or drain raced admission). Safe to retry.
	ErrCodeCancelled ErrCode = 8
	// ErrCodeConnLimit: the server is at its connection cap. Sent with
	// request id 0 and then the connection is closed.
	ErrCodeConnLimit ErrCode = 9
	// ErrCodeInternal: anything else; see the message.
	ErrCodeInternal ErrCode = 10
	// ErrCodeVersionMismatch: the peer's HELLO carried a protocol version
	// this node does not speak, or the peer's first request was not HELLO.
	// Sent in reply to that request; the connection is then closed. Not
	// retryable against the same binary.
	ErrCodeVersionMismatch ErrCode = 11
	// ErrCodeNotPrimary: a write (or replication-control op) was sent to a
	// node that is a follower or has been fenced. Redirect to the current
	// primary; retrying here fails identically.
	ErrCodeNotPrimary ErrCode = 12
	// ErrCodeLagging: the required commit sequence was not reached in time —
	// a semi-sync write whose replication ack timed out (durable locally,
	// fate after failover ambiguous) or a GET_SEQ wait that expired. NOT
	// retry-safe for writes: the op may already be durable.
	ErrCodeLagging ErrCode = 13
)

// Retryable reports whether the code guarantees the request had no durable
// effect and a later retry may succeed — the only codes the client's bounded
// retry loop is allowed to act on. Duplicate-key and not-found are final
// answers, closed/poisoned need operator action on this server, and
// malformed/internal would fail identically again.
func (c ErrCode) Retryable() bool {
	switch c {
	case ErrCodeOverloaded, ErrCodeDiskFull, ErrCodeCancelled, ErrCodeConnLimit:
		return true
	}
	return false
}

// String names the code.
func (c ErrCode) String() string {
	switch c {
	case ErrCodeNone:
		return "ok"
	case ErrCodeOverloaded:
		return "overloaded"
	case ErrCodeDiskFull:
		return "disk-full"
	case ErrCodeClosed:
		return "closed"
	case ErrCodePoisoned:
		return "poisoned"
	case ErrCodeDuplicateKey:
		return "duplicate-key"
	case ErrCodeKeyNotFound:
		return "key-not-found"
	case ErrCodeMalformed:
		return "malformed"
	case ErrCodeCancelled:
		return "cancelled"
	case ErrCodeConnLimit:
		return "conn-limit"
	case ErrCodeInternal:
		return "internal"
	case ErrCodeVersionMismatch:
		return "version-mismatch"
	case ErrCodeNotPrimary:
		return "not-primary"
	case ErrCodeLagging:
		return "lagging"
	}
	return fmt.Sprintf("ErrCode(%d)", byte(c))
}

const (
	frameHeader = 8  // length + CRC
	msgHeader   = 9  // type + request id
	recSize     = 17 // one REPL_PULL record: [1] op [8] key [8] val
	pairSize    = 16

	// MaxFrame bounds one frame's payload: the decoder refuses larger
	// length prefixes before allocating anything, so a hostile 4 GB length
	// costs the peer a rejected frame, not the server 4 GB. Large enough
	// for a 64k-pair RANGE response or a 61k-record REPL_PULL reply.
	MaxFrame = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Framing errors. ErrFrame-class failures mean the byte stream itself can no
// longer be trusted (resynchronization is impossible in a length-prefixed
// protocol), so the connection must be dropped; ErrMalformed means one
// well-framed payload decoded as garbage and only that request fails.
var (
	// ErrFrameTooLarge rejects a length prefix over MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	// ErrFrameCRC rejects a payload whose checksum does not match.
	ErrFrameCRC = errors.New("wire: frame CRC mismatch")
	// ErrFrameEmpty rejects a zero-length payload (every message carries at
	// least a type byte and a request id).
	ErrFrameEmpty = errors.New("wire: empty frame")
	// ErrMalformed rejects a payload whose body contradicts its type —
	// short body, impossible count, unknown type byte.
	ErrMalformed = errors.New("wire: malformed message")
)

// Pair is one key/value of a RANGE response.
type Pair struct {
	Key, Val uint64
}

// Request is a decoded client→server message.
type Request struct {
	ID uint64
	Op Op
	// Key/Val carry GET/INSERT/DELETE operands; RANGE reuses Key=lo,
	// Val=hi.
	Key, Val uint64
	// Limit caps a RANGE response's pair count (0 = server default) and a
	// REPL_PULL's record count.
	Limit uint32
	// Version is HELLO's protocol version (see hello.go).
	Version uint16
	// Seq is REPL_PULL's from-sequence, GET_SEQ's wait target, and
	// REPL_SNAP's chunk offset. WaitMS bounds a long-poll (REPL_PULL,
	// GET_SEQ); Epoch carries the fencing token (REPL_PULL, REPL_FENCE);
	// SnapID names an open snapshot stream (REPL_SNAP).
	Seq    uint64
	WaitMS uint32
	Epoch  uint64
	SnapID uint64
	// Shard addresses one partition's stream (REPL_PULL, REPL_SNAP);
	// WantLayout asks the REPL_PULL reply to attach the primary's shard
	// boundaries.
	Shard      uint32
	WantLayout bool
}

// Response is a decoded server→client message. Op echoes the request's
// opcode so the payload is self-describing — a response can be decoded (and
// fuzzed) without knowing which request it answers.
type Response struct {
	ID uint64
	Op Op
	OK bool

	// Found/Val answer GET.
	Found bool
	Val   uint64
	// Pairs answers RANGE; More reports the scan stopped at the limit with
	// keys remaining.
	Pairs []Pair
	More  bool
	// Stats answers STATS with a JSON document (see StatsReply).
	Stats []byte

	// Seq is the commit-sequence token: on INSERT/DELETE OK replies it
	// is present only when HasSeq is set (the server sets it on every OK
	// write reply; HELLO is mandatory, so every peer expects the body); on
	// GET_SEQ replies it is always present.
	Seq    uint64
	HasSeq bool

	// Version/Role/Epoch answer HELLO (Role mirrors chameleon.ReplRole's
	// numeric values; Epoch is the fencing token). Role/Epoch also answer
	// REPL_FENCE and PROMOTE.
	Version uint16
	Role    byte
	Epoch   uint64

	// REPL_PULL reply: Recs are the shard's committed records starting at
	// commit sequence FirstSeq; UpstreamSeq is the shard's commit sequence at
	// reply time (the lag reference); SnapshotNeeded means the requested
	// from-sequence predates retention and the puller must bootstrap via
	// REPL_SNAP. When HasLayout is set Bounds carries the primary's current
	// shard boundaries (len = shards-1, empty for one shard) and the puller
	// must adopt them before applying more records.
	Recs           []wal.Record
	FirstSeq       uint64
	UpstreamSeq    uint64
	SnapshotNeeded bool
	Bounds         []uint64
	HasLayout      bool

	// REPL_SNAP reply: chunk Snap of a snapshot stream SnapID consistent
	// as-of AsOfSeq, covering [Offset, Offset+len(Snap)) of Total bytes.
	Snap    []byte
	SnapID  uint64
	AsOfSeq uint64
	Offset  uint64
	Total   uint64

	// Err/RetryAfterMS/Msg describe a failed request. RetryAfterMS is the
	// server's backoff hint for retryable codes.
	Err          ErrCode
	RetryAfterMS uint32
	Msg          string
}

// beginFrame grows dst by room for a frame of up to size payload bytes and
// reserves its length+CRC header; the payload is then appended in place and
// endFrame fills the header in. start is where the frame begins in dst.
func beginFrame(dst []byte, size int) (out []byte, start int) {
	start = len(dst)
	dst = slices.Grow(dst, frameHeader+size)
	return append(dst, make([]byte, frameHeader)...), start
}

// endFrame seals the frame begun at start: the payload is everything
// appended after its header.
func endFrame(dst []byte, start int) []byte {
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// AppendRequest encodes r as one complete frame onto dst, in place: it
// allocates only when dst lacks the room.
func AppendRequest(dst []byte, r *Request) []byte {
	dst, start := beginFrame(dst, msgHeader+29) // REPL_PULL has the longest body
	dst = append(dst, byte(r.Op))
	dst = binary.LittleEndian.AppendUint64(dst, r.ID)
	switch r.Op {
	case OpGet, OpDelete:
		dst = binary.LittleEndian.AppendUint64(dst, r.Key)
	case OpInsert:
		dst = binary.LittleEndian.AppendUint64(dst, r.Key)
		dst = binary.LittleEndian.AppendUint64(dst, r.Val)
	case OpRange:
		dst = binary.LittleEndian.AppendUint64(dst, r.Key)
		dst = binary.LittleEndian.AppendUint64(dst, r.Val)
		dst = binary.LittleEndian.AppendUint32(dst, r.Limit)
	case OpStats, OpPing, OpPromote:
		// no body
	case OpHello:
		dst = binary.LittleEndian.AppendUint16(dst, r.Version)
	case OpReplFence:
		dst = binary.LittleEndian.AppendUint64(dst, r.Epoch)
	case OpGetSeq:
		dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
		dst = binary.LittleEndian.AppendUint32(dst, r.WaitMS)
	case OpReplPull:
		dst = binary.LittleEndian.AppendUint32(dst, r.Shard)
		dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
		dst = binary.LittleEndian.AppendUint32(dst, r.Limit)
		dst = binary.LittleEndian.AppendUint32(dst, r.WaitMS)
		dst = binary.LittleEndian.AppendUint64(dst, r.Epoch)
		var layout byte
		if r.WantLayout {
			layout = 1
		}
		dst = append(dst, layout)
	case OpReplSnap:
		dst = binary.LittleEndian.AppendUint32(dst, r.Shard)
		dst = binary.LittleEndian.AppendUint64(dst, r.SnapID)
		dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	}
	return endFrame(dst, start)
}

// AppendResponse encodes r as one complete frame onto dst, in place.
func AppendResponse(dst []byte, r *Response) []byte {
	size := msgHeader + 1 + 8 + len(r.Pairs)*pairSize + len(r.Stats) + len(r.Msg) +
		len(r.Recs)*recSize + len(r.Snap) + len(r.Bounds)*8 + 48
	dst, start := beginFrame(dst, size)
	if !r.OK {
		dst = append(dst, statusErr)
		dst = binary.LittleEndian.AppendUint64(dst, r.ID)
		dst = append(dst, byte(r.Op), byte(r.Err))
		dst = binary.LittleEndian.AppendUint32(dst, r.RetryAfterMS)
		msg := r.Msg
		if len(msg) > 1<<16-1 {
			msg = msg[:1<<16-1] // a diagnostic, not a transcript
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
		dst = append(dst, msg...)
		return endFrame(dst, start)
	}
	dst = append(dst, statusOK)
	dst = binary.LittleEndian.AppendUint64(dst, r.ID)
	dst = append(dst, byte(r.Op))
	switch r.Op {
	case OpGet:
		var found byte
		if r.Found {
			found = 1
		}
		dst = append(dst, found)
		dst = binary.LittleEndian.AppendUint64(dst, r.Val)
	case OpRange:
		var more byte
		if r.More {
			more = 1
		}
		dst = append(dst, more)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Pairs)))
		for _, p := range r.Pairs {
			dst = binary.LittleEndian.AppendUint64(dst, p.Key)
			dst = binary.LittleEndian.AppendUint64(dst, p.Val)
		}
	case OpStats:
		dst = append(dst, r.Stats...)
	case OpInsert, OpDelete:
		// The commit-sequence token is the only body, present iff HasSeq
		// (see Response.Seq).
		if r.HasSeq {
			dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
		}
	case OpPing:
		// no body
	case OpHello:
		dst = binary.LittleEndian.AppendUint16(dst, r.Version)
		dst = append(dst, r.Role)
		dst = binary.LittleEndian.AppendUint64(dst, r.Epoch)
	case OpReplPull:
		dst = binary.LittleEndian.AppendUint64(dst, r.FirstSeq)
		dst = binary.LittleEndian.AppendUint64(dst, r.UpstreamSeq)
		dst = binary.LittleEndian.AppendUint64(dst, r.Epoch)
		var flags byte
		if r.SnapshotNeeded {
			flags |= 1
		}
		if r.HasLayout {
			flags |= 2
		}
		dst = append(dst, flags)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Recs)))
		for _, rec := range r.Recs {
			dst = append(dst, byte(rec.Op))
			dst = binary.LittleEndian.AppendUint64(dst, rec.Key)
			dst = binary.LittleEndian.AppendUint64(dst, rec.Val)
		}
		if r.HasLayout {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Bounds)))
			for _, b := range r.Bounds {
				dst = binary.LittleEndian.AppendUint64(dst, b)
			}
		}
	case OpReplSnap:
		dst = binary.LittleEndian.AppendUint64(dst, r.SnapID)
		dst = binary.LittleEndian.AppendUint64(dst, r.AsOfSeq)
		dst = binary.LittleEndian.AppendUint64(dst, r.Offset)
		dst = binary.LittleEndian.AppendUint64(dst, r.Total)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Snap)))
		dst = append(dst, r.Snap...)
	case OpReplFence, OpPromote:
		dst = binary.LittleEndian.AppendUint64(dst, r.Epoch)
		dst = append(dst, r.Role)
	case OpGetSeq:
		dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	}
	return endFrame(dst, start)
}

// DecodeFrame validates the frame starting at data[0] and returns its
// payload (aliasing data, no copy) and the total frame length consumed. A
// short buffer returns (nil, 0, io.ErrShortBuffer) so stream parsers can
// wait for more bytes; any other error means the stream is unframeable.
func DecodeFrame(data []byte) (payload []byte, n int, err error) {
	if len(data) < frameHeader {
		return nil, 0, io.ErrShortBuffer
	}
	plen := binary.LittleEndian.Uint32(data[0:])
	crc := binary.LittleEndian.Uint32(data[4:])
	if plen == 0 {
		return nil, 0, ErrFrameEmpty
	}
	if plen > MaxFrame {
		return nil, 0, ErrFrameTooLarge
	}
	if len(data) < frameHeader+int(plen) {
		return nil, 0, io.ErrShortBuffer
	}
	payload = data[frameHeader : frameHeader+int(plen)]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, 0, ErrFrameCRC
	}
	return payload, frameHeader + int(plen), nil
}

// FullFrameBuffered reports whether br's buffer already holds one complete
// frame, so the next ReadFrame is guaranteed not to block on the socket. A
// buffered header whose length prefix is invalid (zero or over MaxFrame)
// also reports true: ReadFrame will consume it and surface the framing error
// without blocking. The server's GET coalescing uses this to decide whether
// to keep accumulating a pipelined burst or flush what it has before the
// reader would sleep.
func FullFrameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < frameHeader {
		return false
	}
	hdr, err := br.Peek(frameHeader)
	if err != nil {
		return false
	}
	plen := binary.LittleEndian.Uint32(hdr[0:])
	if plen == 0 || plen > MaxFrame {
		return true // ReadFrame will fail fast on this header; no blocking
	}
	return br.Buffered() >= frameHeader+int(plen)
}

// ReadFrame reads one frame's payload from r. buf is the caller's buffer,
// one per connection: the length+CRC header is read into it, and so is the
// payload when it fits buf's capacity, so a connection's small frames cost
// no allocation each. The returned payload then aliases buf and is valid
// until the next ReadFrame into buf; a payload longer than cap(buf) gets its
// own allocation, bounded by the validated length prefix, never by what the
// peer claims beyond MaxFrame. A nil buf works and allocates both. Returns
// io.EOF only on a clean boundary (no bytes read); a frame cut off mid-way
// is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < frameHeader {
		buf = make([]byte, frameHeader)
	}
	hdr := buf[:frameHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	plen := binary.LittleEndian.Uint32(hdr[0:])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if plen == 0 {
		return nil, ErrFrameEmpty
	}
	if plen > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	var payload []byte
	if int(plen) <= cap(buf) {
		payload = buf[:plen]
	} else {
		payload = make([]byte, plen)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, ErrFrameCRC
	}
	return payload, nil
}

// PeekID extracts the request id from a payload whose body failed to
// decode, so the server can address its malformed-request error to the
// right in-flight slot. ok=false means not even the id survived.
func PeekID(payload []byte) (id uint64, ok bool) {
	if len(payload) < msgHeader {
		return 0, false
	}
	return binary.LittleEndian.Uint64(payload[1:]), true
}

// DecodeRequest decodes a frame payload as a client→server message. Every
// count is validated against the bytes present before any slice is
// allocated from it.
func DecodeRequest(payload []byte) (*Request, error) {
	r := new(Request)
	if err := DecodeRequestInto(payload, r); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeRequestInto is DecodeRequest into the caller's r, which it
// overwrites whole, so a server decoding into a value it owns allocates
// nothing per request. The payload is not retained. On error r holds no
// meaningful request.
func DecodeRequestInto(payload []byte, r *Request) error {
	if len(payload) < msgHeader {
		return fmt.Errorf("%w: %d-byte payload", ErrMalformed, len(payload))
	}
	*r = Request{
		Op: Op(payload[0]),
		ID: binary.LittleEndian.Uint64(payload[1:]),
	}
	body := payload[msgHeader:]
	switch r.Op {
	case OpGet, OpDelete:
		if len(body) != 8 {
			return fmt.Errorf("%w: %s body %d bytes", ErrMalformed, r.Op, len(body))
		}
		r.Key = binary.LittleEndian.Uint64(body)
	case OpInsert:
		if len(body) != 16 {
			return fmt.Errorf("%w: %s body %d bytes", ErrMalformed, r.Op, len(body))
		}
		r.Key = binary.LittleEndian.Uint64(body)
		r.Val = binary.LittleEndian.Uint64(body[8:])
	case OpRange:
		if len(body) != 20 {
			return fmt.Errorf("%w: %s body %d bytes", ErrMalformed, r.Op, len(body))
		}
		r.Key = binary.LittleEndian.Uint64(body)
		r.Val = binary.LittleEndian.Uint64(body[8:])
		r.Limit = binary.LittleEndian.Uint32(body[16:])
	case OpStats, OpPing, OpPromote:
		if len(body) != 0 {
			return fmt.Errorf("%w: %s carries a body", ErrMalformed, r.Op)
		}
	case OpHello:
		if len(body) != 2 {
			return fmt.Errorf("%w: HELLO body %d bytes", ErrMalformed, len(body))
		}
		r.Version = binary.LittleEndian.Uint16(body)
	case OpReplFence:
		if len(body) != 8 {
			return fmt.Errorf("%w: REPL_FENCE body %d bytes", ErrMalformed, len(body))
		}
		r.Epoch = binary.LittleEndian.Uint64(body)
	case OpGetSeq:
		if len(body) != 12 {
			return fmt.Errorf("%w: GET_SEQ body %d bytes", ErrMalformed, len(body))
		}
		r.Seq = binary.LittleEndian.Uint64(body)
		r.WaitMS = binary.LittleEndian.Uint32(body[8:])
	case OpReplPull:
		if len(body) != 29 {
			return fmt.Errorf("%w: REPL_PULL body %d bytes", ErrMalformed, len(body))
		}
		if body[28] > 1 {
			return fmt.Errorf("%w: REPL_PULL send-layout byte %d", ErrMalformed, body[28])
		}
		r.Shard = binary.LittleEndian.Uint32(body)
		r.Seq = binary.LittleEndian.Uint64(body[4:])
		r.Limit = binary.LittleEndian.Uint32(body[12:])
		r.WaitMS = binary.LittleEndian.Uint32(body[16:])
		r.Epoch = binary.LittleEndian.Uint64(body[20:])
		r.WantLayout = body[28] == 1
	case OpReplSnap:
		if len(body) != 20 {
			return fmt.Errorf("%w: REPL_SNAP body %d bytes", ErrMalformed, len(body))
		}
		r.Shard = binary.LittleEndian.Uint32(body)
		r.SnapID = binary.LittleEndian.Uint64(body[4:])
		r.Seq = binary.LittleEndian.Uint64(body[12:])
	default:
		return fmt.Errorf("%w: unknown opcode 0x%02x", ErrMalformed, payload[0])
	}
	return nil
}

// DecodeResponse decodes a frame payload as a server→client message, with
// the same count-before-allocation discipline as DecodeRequest.
func DecodeResponse(payload []byte) (*Response, error) {
	if len(payload) < msgHeader+1 {
		return nil, fmt.Errorf("%w: %d-byte payload", ErrMalformed, len(payload))
	}
	status := payload[0]
	r := &Response{
		ID: binary.LittleEndian.Uint64(payload[1:]),
		Op: Op(payload[msgHeader]),
	}
	body := payload[msgHeader+1:]
	switch status {
	case statusErr:
		if len(body) < 7 {
			return nil, fmt.Errorf("%w: error body %d bytes", ErrMalformed, len(body))
		}
		r.Err = ErrCode(body[0])
		r.RetryAfterMS = binary.LittleEndian.Uint32(body[1:])
		msgLen := binary.LittleEndian.Uint16(body[5:])
		if int(msgLen) != len(body)-7 {
			return nil, fmt.Errorf("%w: error message %d vs %d body bytes", ErrMalformed, msgLen, len(body)-7)
		}
		r.Msg = string(body[7:])
		if r.Err == ErrCodeNone {
			return nil, fmt.Errorf("%w: error response with code 0", ErrMalformed)
		}
		return r, nil
	case statusOK:
		r.OK = true
	default:
		return nil, fmt.Errorf("%w: unknown status 0x%02x", ErrMalformed, status)
	}
	switch r.Op {
	case OpGet:
		if len(body) != 9 || body[0] > 1 {
			return nil, fmt.Errorf("%w: GET reply body %d bytes", ErrMalformed, len(body))
		}
		r.Found = body[0] == 1
		r.Val = binary.LittleEndian.Uint64(body[1:])
	case OpRange:
		if len(body) < 5 || body[0] > 1 {
			return nil, fmt.Errorf("%w: RANGE reply body %d bytes", ErrMalformed, len(body))
		}
		r.More = body[0] == 1
		count := binary.LittleEndian.Uint32(body[1:])
		body = body[5:]
		if int64(count)*pairSize != int64(len(body)) {
			return nil, fmt.Errorf("%w: RANGE count %d vs %d body bytes", ErrMalformed, count, len(body))
		}
		if count == 0 {
			break
		}
		r.Pairs = make([]Pair, count)
		for i := range r.Pairs {
			r.Pairs[i] = Pair{
				Key: binary.LittleEndian.Uint64(body),
				Val: binary.LittleEndian.Uint64(body[8:]),
			}
			body = body[pairSize:]
		}
	case OpStats:
		r.Stats = append([]byte(nil), body...)
	case OpInsert, OpDelete:
		// Empty = legacy reply; 8 bytes = the commit-sequence token.
		switch len(body) {
		case 0:
		case 8:
			r.Seq = binary.LittleEndian.Uint64(body)
			r.HasSeq = true
		default:
			return nil, fmt.Errorf("%w: %s reply body %d bytes", ErrMalformed, r.Op, len(body))
		}
	case OpPing:
		if len(body) != 0 {
			return nil, fmt.Errorf("%w: %s reply carries a body", ErrMalformed, r.Op)
		}
	case OpHello:
		if len(body) != 11 {
			return nil, fmt.Errorf("%w: HELLO reply body %d bytes", ErrMalformed, len(body))
		}
		r.Version = binary.LittleEndian.Uint16(body)
		r.Role = body[2]
		r.Epoch = binary.LittleEndian.Uint64(body[3:])
	case OpReplPull:
		if len(body) < 29 || body[24] > 3 {
			return nil, fmt.Errorf("%w: REPL_PULL reply body %d bytes", ErrMalformed, len(body))
		}
		r.FirstSeq = binary.LittleEndian.Uint64(body)
		r.UpstreamSeq = binary.LittleEndian.Uint64(body[8:])
		r.Epoch = binary.LittleEndian.Uint64(body[16:])
		r.SnapshotNeeded = body[24]&1 != 0
		r.HasLayout = body[24]&2 != 0
		count := binary.LittleEndian.Uint32(body[25:])
		body = body[29:]
		recBytes := int64(count) * recSize
		if recBytes > int64(len(body)) {
			return nil, fmt.Errorf("%w: REPL_PULL count %d vs %d body bytes", ErrMalformed, count, len(body))
		}
		if count > 0 {
			r.Recs = make([]wal.Record, count)
			for i := range r.Recs {
				op := wal.Op(body[0])
				if op != wal.OpInsert && op != wal.OpDelete {
					return nil, fmt.Errorf("%w: REPL_PULL record op 0x%02x", ErrMalformed, byte(op))
				}
				r.Recs[i] = wal.Record{
					Op:  op,
					Key: binary.LittleEndian.Uint64(body[1:]),
					Val: binary.LittleEndian.Uint64(body[9:]),
				}
				body = body[recSize:]
			}
		}
		if !r.HasLayout {
			if len(body) != 0 {
				return nil, fmt.Errorf("%w: REPL_PULL trailing %d bytes", ErrMalformed, len(body))
			}
			break
		}
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: REPL_PULL bounds header %d bytes", ErrMalformed, len(body))
		}
		nbounds := binary.LittleEndian.Uint32(body)
		body = body[4:]
		if int64(nbounds)*8 != int64(len(body)) {
			return nil, fmt.Errorf("%w: REPL_PULL bounds %d vs %d body bytes", ErrMalformed, nbounds, len(body))
		}
		if nbounds > 0 {
			r.Bounds = make([]uint64, nbounds)
			for i := range r.Bounds {
				r.Bounds[i] = binary.LittleEndian.Uint64(body)
				body = body[8:]
			}
		}
	case OpReplSnap:
		if len(body) < 36 {
			return nil, fmt.Errorf("%w: REPL_SNAP reply body %d bytes", ErrMalformed, len(body))
		}
		r.SnapID = binary.LittleEndian.Uint64(body)
		r.AsOfSeq = binary.LittleEndian.Uint64(body[8:])
		r.Offset = binary.LittleEndian.Uint64(body[16:])
		r.Total = binary.LittleEndian.Uint64(body[24:])
		clen := binary.LittleEndian.Uint32(body[32:])
		body = body[36:]
		if int64(clen) != int64(len(body)) {
			return nil, fmt.Errorf("%w: REPL_SNAP chunk %d vs %d body bytes", ErrMalformed, clen, len(body))
		}
		if clen > 0 {
			r.Snap = append([]byte(nil), body...)
		}
	case OpReplFence, OpPromote:
		if len(body) != 9 {
			return nil, fmt.Errorf("%w: %s reply body %d bytes", ErrMalformed, r.Op, len(body))
		}
		r.Epoch = binary.LittleEndian.Uint64(body)
		r.Role = body[8]
	case OpGetSeq:
		if len(body) != 8 {
			return nil, fmt.Errorf("%w: GET_SEQ reply body %d bytes", ErrMalformed, len(body))
		}
		r.Seq = binary.LittleEndian.Uint64(body)
	default:
		return nil, fmt.Errorf("%w: reply for unknown opcode 0x%02x", ErrMalformed, byte(r.Op))
	}
	return r, nil
}
