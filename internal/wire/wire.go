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
	c := codec{buf: binary.LittleEndian.AppendUint64(dst, r.ID)}
	r.fields(&c)
	return endFrame(c.buf, start)
}

// AppendResponse encodes r as one complete frame onto dst, in place.
func AppendResponse(dst []byte, r *Response) []byte {
	size := msgHeader + 1 + 8 + len(r.Pairs)*pairSize + len(r.Stats) + len(r.Msg) +
		len(r.Recs)*recSize + len(r.Snap) + len(r.Bounds)*8 + 48
	dst, start := beginFrame(dst, size)
	status := statusOK
	if !r.OK {
		status = statusErr
	}
	dst = append(dst, status)
	dst = binary.LittleEndian.AppendUint64(dst, r.ID)
	c := codec{buf: append(dst, byte(r.Op))}
	r.fields(&c)
	return endFrame(c.buf, start)
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
	c := codec{buf: payload[msgHeader:], dec: true}
	if !r.fields(&c) {
		return fmt.Errorf("%w: unknown opcode 0x%02x", ErrMalformed, payload[0])
	}
	if c.ok() {
		return nil
	}
	return c.err(r.Op, "body", len(payload)-msgHeader)
}

// DecodeResponse decodes a frame payload as a server→client message, with
// the same count-before-allocation discipline as DecodeRequest.
func DecodeResponse(payload []byte) (*Response, error) {
	if len(payload) < msgHeader+1 {
		return nil, fmt.Errorf("%w: %d-byte payload", ErrMalformed, len(payload))
	}
	status := payload[0]
	if status != statusOK && status != statusErr {
		return nil, fmt.Errorf("%w: unknown status 0x%02x", ErrMalformed, status)
	}
	r := &Response{
		ID: binary.LittleEndian.Uint64(payload[1:]),
		Op: Op(payload[msgHeader]),
		OK: status == statusOK,
	}
	c := codec{buf: payload[msgHeader+1:], dec: true}
	if !r.fields(&c) {
		return nil, fmt.Errorf("%w: reply for unknown opcode 0x%02x", ErrMalformed, byte(r.Op))
	}
	if !c.ok() {
		return nil, c.err(r.Op, "reply body", len(payload)-msgHeader-1)
	}
	if !r.OK && r.Err == ErrCodeNone {
		return nil, fmt.Errorf("%w: error response with code 0", ErrMalformed)
	}
	return r, nil
}

// fields is the one statement of each request's body layout: AppendRequest
// walks it to encode and DecodeRequestInto to decode (the Op constants
// document the same layouts). It reports false for an opcode this version
// does not define.
func (r *Request) fields(c *codec) bool {
	switch r.Op {
	case OpGet, OpDelete:
		c.u64(&r.Key)
	case OpInsert:
		c.u64(&r.Key)
		c.u64(&r.Val)
	case OpRange:
		c.u64(&r.Key)
		c.u64(&r.Val)
		c.u32(&r.Limit)
	case OpStats, OpPing, OpPromote:
	case OpHello:
		c.u16(&r.Version)
	case OpReplFence:
		c.u64(&r.Epoch)
	case OpGetSeq:
		c.u64(&r.Seq)
		c.u32(&r.WaitMS)
	case OpReplPull:
		c.u32(&r.Shard)
		c.u64(&r.Seq)
		c.u32(&r.Limit)
		c.u32(&r.WaitMS)
		c.u64(&r.Epoch)
		c.flag(&r.WantLayout)
	case OpReplSnap:
		c.u32(&r.Shard)
		c.u64(&r.SnapID)
		c.u64(&r.Seq)
	default:
		return false
	}
	return true
}

// fields is the one statement of each response's body layout, after the
// status, request id and opcode: an error's whatever its opcode, else its
// opcode's. It reports false for an opcode this version does not define.
func (r *Response) fields(c *codec) bool {
	if !r.OK {
		c.u8((*byte)(&r.Err))
		c.u32(&r.RetryAfterMS)
		c.str16(&r.Msg)
		return true
	}
	switch r.Op {
	case OpGet:
		c.flag(&r.Found)
		c.u64(&r.Val)
	case OpRange:
		c.flag(&r.More)
		c.pairs(&r.Pairs)
	case OpStats:
		c.rest(&r.Stats)
	case OpInsert, OpDelete:
		// The commit-sequence token is the only body, present iff HasSeq
		// (see Response.Seq).
		c.opt64(&r.Seq, &r.HasSeq)
	case OpPing:
	case OpHello:
		c.u16(&r.Version)
		c.u8(&r.Role)
		c.u64(&r.Epoch)
	case OpReplPull:
		c.u64(&r.FirstSeq)
		c.u64(&r.UpstreamSeq)
		c.u64(&r.Epoch)
		c.bits(&r.SnapshotNeeded, &r.HasLayout)
		c.recs(&r.Recs)
		if r.HasLayout {
			c.u64s(&r.Bounds)
		}
	case OpReplSnap:
		c.u64(&r.SnapID)
		c.u64(&r.AsOfSeq)
		c.u64(&r.Offset)
		c.u64(&r.Total)
		c.bytes32(&r.Snap)
	case OpReplFence, OpPromote:
		c.u64(&r.Epoch)
		c.u8(&r.Role)
	case OpGetSeq:
		c.u64(&r.Seq)
	default:
		return false
	}
	return true
}

// codec runs a field list in one direction. Encoding appends each field to
// buf. Decoding reads each from the front of buf, the unread body; the
// first field that does not fit, or holds a value the layout forbids, fails
// the decode (fail), and every later read finds nothing. A count is checked
// against the bytes left before anything is sized from it.
type codec struct {
	buf []byte
	dec bool
	why string // the first failure's reason
}

// fail ends a decode: it keeps the first reason and drops the unread body.
func (c *codec) fail(why string) {
	if c.why == "" {
		c.why = why
	}
	c.buf = nil
}

// take returns the next n body bytes, or nil after failing a short body.
func (c *codec) take(n int) []byte {
	if n > len(c.buf) {
		c.fail("short")
		return nil
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

// count reads or writes a 4-byte element count; decoding returns -1 when
// count elements of size bytes would overrun the body.
func (c *codec) count(n, size int) int {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(n))
		return n
	}
	b := c.take(4)
	if b == nil {
		return -1
	}
	m := int64(binary.LittleEndian.Uint32(b))
	if m*int64(size) > int64(len(c.buf)) {
		c.fail("count over body")
		return -1
	}
	return int(m)
}

// ok reports whether a decode read the whole body and nothing failed.
func (c *codec) ok() bool { return c.why == "" && len(c.buf) == 0 }

// err reports a decode that was not ok as ErrMalformed; n is the body's
// length.
func (c *codec) err(op Op, what string, n int) error {
	if c.why == "" {
		c.why = "trailing bytes"
	}
	return fmt.Errorf("%w: %s %s of %d bytes: %s", ErrMalformed, op, what, n, c.why)
}

func (c *codec) u8(v *byte) {
	if !c.dec {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

func (c *codec) u16(v *uint16) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *v)
	} else if b := c.take(2); b != nil {
		*v = binary.LittleEndian.Uint16(b)
	}
}

func (c *codec) u32(v *uint32) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

func (c *codec) u64(v *uint64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// flag is a bool as one byte, 0 or 1.
func (c *codec) flag(v *bool) { c.bits(v, nil) }

// bits is up to two bools as the low bits of one byte (a, then b; nil b
// means one); a set bit above them is malformed.
func (c *codec) bits(a, b *bool) {
	var x byte
	if !c.dec {
		if *a {
			x |= 1
		}
		if b != nil && *b {
			x |= 2
		}
		c.buf = append(c.buf, x)
		return
	}
	c.u8(&x)
	max := byte(1)
	if b != nil {
		max = 3
		*b = x&2 != 0
	}
	if x > max {
		c.fail(fmt.Sprintf("flag byte 0x%02x", x))
	}
	*a = x&1 != 0
}

// opt64 is a trailing uint64 that is present iff *has: the body ends
// before it or after it.
func (c *codec) opt64(v *uint64, has *bool) {
	if c.dec {
		*has = len(c.buf) > 0
	}
	if *has {
		c.u64(v)
	}
}

// rest is the rest of the body; decoding copies it.
func (c *codec) rest(v *[]byte) {
	if !c.dec {
		c.buf = append(c.buf, *v...)
		return
	}
	*v = append([]byte(nil), c.take(len(c.buf))...)
}

// bytes32 is a 4-byte length and that many bytes; decoding copies them
// (nil when there are none).
func (c *codec) bytes32(v *[]byte) {
	n := c.count(len(*v), 1)
	if !c.dec {
		c.buf = append(c.buf, *v...)
	} else if n > 0 {
		*v = append([]byte(nil), c.take(n)...)
	}
}

// str16 is a 2-byte length and that many bytes. Encoding cuts a longer
// string at 64 KiB - 1: it is a diagnostic, not a transcript.
func (c *codec) str16(v *string) {
	if !c.dec {
		s := *v
		if len(s) > 1<<16-1 {
			s = s[:1<<16-1]
		}
		c.buf = binary.LittleEndian.AppendUint16(c.buf, uint16(len(s)))
		c.buf = append(c.buf, s...)
		return
	}
	var n uint16
	c.u16(&n)
	if b := c.take(int(n)); b != nil {
		*v = string(b)
	}
}

// pairs is a count and that many key/value pairs (a RANGE reply).
func (c *codec) pairs(v *[]Pair) {
	n := c.count(len(*v), pairSize)
	if n > 0 && c.dec {
		*v = make([]Pair, n)
	}
	for i := range max(n, 0) {
		c.u64(&(*v)[i].Key)
		c.u64(&(*v)[i].Val)
	}
}

// recs is a count and that many WAL records, each [1] op [8] key [8] val;
// an op other than insert or delete is malformed.
func (c *codec) recs(v *[]wal.Record) {
	n := c.count(len(*v), recSize)
	if n > 0 && c.dec {
		*v = make([]wal.Record, n)
	}
	for i := range max(n, 0) {
		r := &(*v)[i]
		c.u8((*byte)(&r.Op))
		if c.dec && r.Op != wal.OpInsert && r.Op != wal.OpDelete {
			c.fail(fmt.Sprintf("record op 0x%02x", byte(r.Op)))
		}
		c.u64(&r.Key)
		c.u64(&r.Val)
	}
}

// u64s is a count and that many uint64s (a REPL_PULL reply's bounds).
func (c *codec) u64s(v *[]uint64) {
	n := c.count(len(*v), 8)
	if n > 0 && c.dec {
		*v = make([]uint64, n)
	}
	for i := range max(n, 0) {
		c.u64(&(*v)[i])
	}
}
