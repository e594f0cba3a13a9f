package wire

import (
	"errors"
	"strings"
	"testing"

	"chameleon"
	"chameleon/internal/wal"
)

// TestSeqTokenCompat pins the compatibility contract around commit-sequence
// tokens: a legacy (empty-body) INSERT/DELETE reply and a
// token-carrying one must both decode, anything else must not, and the
// encoder must emit the token exactly when HasSeq says so — this is what
// lets a pre-HELLO client and a token-aware server share one wire format.
func TestSeqTokenCompat(t *testing.T) {
	legacy := AppendResponse(nil, &Response{ID: 1, Op: OpInsert, OK: true})
	tokened := AppendResponse(nil, &Response{ID: 1, Op: OpInsert, OK: true, Seq: 99, HasSeq: true})
	if len(tokened) != len(legacy)+8 {
		t.Fatalf("token adds %d bytes, want 8", len(tokened)-len(legacy))
	}

	p, _, err := DecodeFrame(legacy)
	if err != nil {
		t.Fatal(err)
	}
	r, err := DecodeResponse(p)
	if err != nil || r.HasSeq {
		t.Fatalf("legacy reply: err=%v HasSeq=%v", err, r.HasSeq)
	}

	p, _, err = DecodeFrame(tokened)
	if err != nil {
		t.Fatal(err)
	}
	r, err = DecodeResponse(p)
	if err != nil || !r.HasSeq || r.Seq != 99 {
		t.Fatalf("tokened reply: err=%v HasSeq=%v Seq=%d", err, r.HasSeq, r.Seq)
	}

	// A body that is neither empty nor exactly 8 bytes is garbage.
	bad := append(append([]byte(nil), p...), 0xFF)
	if _, err := DecodeResponse(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("9-byte INSERT body decoded: %v", err)
	}
}

// TestHelloVersioning pins the fail-fast negotiation shape: a mismatch reply
// carries the typed code, and the round-tripped HELLO preserves the
// version.
func TestHelloVersioning(t *testing.T) {
	req := &Request{ID: 7, Op: OpHello, Version: ProtocolVersion}
	p, _, err := DecodeFrame(AppendRequest(nil, req))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != ProtocolVersion {
		t.Fatalf("HELLO round trip: version %d", got.Version)
	}

	rej := &Response{ID: 7, Op: OpHello, Err: ErrCodeVersionMismatch, Msg: "server speaks v2"}
	p, _, err = DecodeFrame(AppendResponse(nil, rej))
	if err != nil {
		t.Fatal(err)
	}
	r, err := DecodeResponse(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Err != ErrCodeVersionMismatch || r.Err.Retryable() {
		t.Fatalf("mismatch reply: code %v retryable %v", r.Err, r.Err.Retryable())
	}
	if !strings.Contains((&RemoteError{Code: r.Err, Msg: r.Msg}).Error(), "version-mismatch") {
		t.Fatal("RemoteError does not name the mismatch")
	}
}

// TestReplErrMapping pins the new codes' round trip through errmap: the
// server encodes the chameleon sentinel, the client unwraps back to it, and
// neither code claims retry safety (NotPrimary needs a redirect; Lagging may
// already be durable).
func TestReplErrMapping(t *testing.T) {
	cases := []struct {
		err  error
		code ErrCode
	}{
		{chameleon.ErrNotPrimary, ErrCodeNotPrimary},
		{chameleon.ErrReplicaLagging, ErrCodeLagging},
	}
	for _, c := range cases {
		if got := CodeFor(c.err); got != c.code {
			t.Fatalf("CodeFor(%v) = %v, want %v", c.err, got, c.code)
		}
		re := &RemoteError{Code: c.code}
		if !errors.Is(re, c.err) {
			t.Fatalf("RemoteError(%v) does not unwrap to %v", c.code, c.err)
		}
		if c.code.Retryable() {
			t.Fatalf("%v must not be retryable", c.code)
		}
	}
}

// TestReplPullMalformed feeds the pull decoder hostile shapes: truncated
// headers, a record count that contradicts the body, an invalid record op,
// an undefined flag bit, and a layout flag with no bounds behind it.
// Replication runs over untrusted links (that is the point of the fault
// injection), so the decoder is the only thing between a corrupted frame
// and a diverged replica.
func TestReplPullMalformed(t *testing.T) {
	good := &Response{ID: 1, Op: OpReplPull, OK: true, FirstSeq: 10, UpstreamSeq: 12, Epoch: 1,
		Recs: []wal.Record{{Op: wal.OpInsert, Key: 5, Val: 6}, {Op: wal.OpDelete, Key: 7}}}
	p, _, err := DecodeFrame(AppendResponse(nil, good))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResponse(p); err != nil {
		t.Fatalf("good pull reply rejected: %v", err)
	}

	muts := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated header", func(b []byte) []byte { return b[:msgHeader+1+22] }},
		{"count over body", func(b []byte) []byte {
			b[msgHeader+1+25]++ // count low byte
			return b
		}},
		{"bad record op", func(b []byte) []byte {
			b[msgHeader+1+29] = 0x7F // first record's op byte
			return b
		}},
		{"undefined flag bit", func(b []byte) []byte {
			b[msgHeader+1+24] = 0x04 // flags byte
			return b
		}},
		{"layout flag without bounds", func(b []byte) []byte {
			b[msgHeader+1+24] = 0x02
			return b
		}},
	}
	for _, m := range muts {
		mp := m.mut(append([]byte(nil), p...))
		if _, err := DecodeResponse(mp); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: want ErrMalformed, got %v", m.name, err)
		}
	}
}

// TestReplSnapMalformed does the same for snapshot chunks: a chunk length
// that contradicts the body must be refused before any bytes are trusted.
func TestReplSnapMalformed(t *testing.T) {
	good := &Response{ID: 2, Op: OpReplSnap, OK: true, SnapID: 3, AsOfSeq: 50, Offset: 0, Total: 4, Snap: []byte{9, 9, 9, 9}}
	p, _, err := DecodeFrame(AppendResponse(nil, good))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResponse(p); err != nil {
		t.Fatalf("good snap reply rejected: %v", err)
	}
	p[msgHeader+1+32]++ // chunk-length low byte now disagrees with the body
	if _, err := DecodeResponse(p); !errors.Is(err, ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
}
