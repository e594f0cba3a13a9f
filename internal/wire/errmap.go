package wire

import (
	"context"
	"errors"
	"fmt"

	"chameleon"
)

// This file is the error mapping between the durable index's error surface
// (DESIGN.md §9) and the protocol's ErrCodes, stated once in codes. It
// lives in wire — not duplicated in server and client — so the two
// directions cannot drift: the server encodes with CodeFor, the client
// decodes with RemoteError, and a code always round-trips to the sentinel
// the in-process API would have returned.

// codes is the table, one row per ErrCode: its name; whether it guarantees
// the request had no durable effect and a later retry may succeed (the only
// codes the client's bounded retry loop may act on); the errors CodeFor maps
// to it; and the sentinel a RemoteError carrying it unwraps to (nil when
// there is no in-process equivalent). Duplicate-key and not-found are final
// answers, closed/poisoned need operator action on this server,
// malformed/internal would fail identically again, not-primary needs a
// redirect, and lagging writes may already be durable.
var codes = [...]struct {
	name      string
	retryable bool
	from      []error
	unwrap    error
}{
	ErrCodeNone:            {name: "ok"},
	ErrCodeOverloaded:      {"overloaded", true, []error{chameleon.ErrOverloaded}, chameleon.ErrOverloaded},
	ErrCodeDiskFull:        {"disk-full", true, []error{chameleon.ErrDiskFull}, chameleon.ErrDiskFull},
	ErrCodeClosed:          {"closed", false, []error{chameleon.ErrIndexClosed}, chameleon.ErrIndexClosed},
	ErrCodePoisoned:        {name: "poisoned"}, // the server's upgrade of internal when health says poisoned
	ErrCodeDuplicateKey:    {"duplicate-key", false, []error{chameleon.ErrDuplicateKey}, chameleon.ErrDuplicateKey},
	ErrCodeKeyNotFound:     {"key-not-found", false, []error{chameleon.ErrKeyNotFound}, chameleon.ErrKeyNotFound},
	ErrCodeMalformed:       {"malformed", false, []error{ErrMalformed}, nil},
	ErrCodeCancelled:       {"cancelled", true, []error{context.Canceled, context.DeadlineExceeded}, context.Canceled},
	ErrCodeConnLimit:       {name: "conn-limit", retryable: true},
	ErrCodeInternal:        {name: "internal"},
	ErrCodeVersionMismatch: {name: "version-mismatch"},
	ErrCodeNotPrimary:      {"not-primary", false, []error{chameleon.ErrNotPrimary}, chameleon.ErrNotPrimary},
	ErrCodeLagging:         {"lagging", false, []error{chameleon.ErrReplicaLagging}, chameleon.ErrReplicaLagging},
}

// CodeFor maps an error returned by the durable index's write path to its
// protocol code: the first row of codes, in code order, that lists an error
// err matches. Unrecognized errors map to ErrCodeInternal; the server
// upgrades those to ErrCodePoisoned when the index's health says so.
func CodeFor(err error) ErrCode {
	if err == nil {
		return ErrCodeNone
	}
	for c, row := range codes {
		for _, e := range row.from {
			if errors.Is(err, e) {
				return ErrCode(c)
			}
		}
	}
	return ErrCodeInternal
}

// Retryable reports whether the code guarantees the request had no durable
// effect and a later retry may succeed (see codes).
func (c ErrCode) Retryable() bool { return int(c) < len(codes) && codes[c].retryable }

// String names the code.
func (c ErrCode) String() string {
	if int(c) < len(codes) {
		return codes[c].name
	}
	return fmt.Sprintf("ErrCode(%d)", byte(c))
}

// RemoteError is a request rejection as the client surfaces it. It unwraps
// to the sentinel the in-process API would have returned, so call sites
// written against chameleon.DurableIndex keep working over the wire:
// errors.Is(err, chameleon.ErrOverloaded) is true exactly when the remote
// index shed the write at admission.
type RemoteError struct {
	Code         ErrCode
	RetryAfterMS uint32
	Msg          string
}

// Error renders the code and server message.
func (e *RemoteError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("chameleon remote: %s", e.Code)
	}
	return fmt.Sprintf("chameleon remote: %s: %s", e.Code, e.Msg)
}

// Unwrap exposes the matching in-process sentinel (nil for codes with no
// in-process equivalent, e.g. malformed or internal).
func (e *RemoteError) Unwrap() error {
	if int(e.Code) < len(codes) {
		return codes[e.Code].unwrap
	}
	return nil
}

// Retryable reports whether the rejection guarantees no durable effect and
// permits a retry (see ErrCode.Retryable).
func (e *RemoteError) Retryable() bool { return e.Code.Retryable() }
