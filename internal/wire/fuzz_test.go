package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at the full decode stack — frame
// envelope, then both message decoders — and enforces the hostile-input
// contract: no panic ever, no allocation sized by an unvalidated count
// (indirectly: a lying count must fail), and anything that does decode must
// re-encode byte-identically (the codec is bijective on its valid domain).
func FuzzDecodeFrame(f *testing.F) {
	for _, rq := range requestCases() {
		f.Add(AppendRequest(nil, rq))
	}
	for _, rs := range responseCases() {
		f.Add(AppendResponse(nil, rs))
	}
	f.Add(appendFrame(nil, retiredReplRequests()[0]))
	hello, batch, batchReply := retiredV3Payloads()
	f.Add(appendFrame(nil, hello))
	f.Add(appendFrame(nil, batch))
	f.Add(appendFrame(nil, batchReply))
	pull, pullReply := retiredV4Pull()
	f.Add(appendFrame(nil, pull))
	f.Add(appendFrame(nil, pullReply))
	f.Add([]byte{})
	f.Add(make([]byte, frameHeader))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(data))
		}
		if len(payload) > MaxFrame {
			t.Fatalf("payload %d bytes exceeds MaxFrame", len(payload))
		}
		if rq, err := DecodeRequest(payload); err == nil {
			frame := AppendRequest(nil, rq)
			if !bytes.Equal(frame, data[:n]) {
				t.Fatalf("request re-encode mismatch:\n in %x\nout %x", data[:n], frame)
			}
			rq2, err := DecodeRequest(payload)
			if err != nil || !reflect.DeepEqual(rq, rq2) {
				t.Fatalf("request decode not deterministic: %v", err)
			}
		}
		if rs, err := DecodeResponse(payload); err == nil {
			frame := AppendResponse(nil, rs)
			if !bytes.Equal(frame, data[:n]) {
				t.Fatalf("response re-encode mismatch:\n in %x\nout %x", data[:n], frame)
			}
		}
		// The streaming reader must agree with the slice decoder on every
		// accepted frame.
		got, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("ReadFrame disagrees with DecodeFrame: %v", err)
		}
	})
}
