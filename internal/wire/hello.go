package wire

// HELLO is the first frame every client (and replication follower) sends on
// a fresh connection: its protocol version, nothing else. The server replies
// with its own version plus its replication role and epoch, so a
// redirecting client learns the topology for free. There is no feature
// negotiation: a version names everything both sides speak.
//
// Compatibility:
//
//   - HELLO is mandatory. A first request that is not this version's HELLO
//     gets the typed ErrCodeVersionMismatch and a hang-up: one that decodes
//     but is another request or carries another version, and one that does
//     not decode at all, such as a v3 peer's HELLO, whose body is longer.
//     After HELLO, a frame that does not decode gets the per-request
//     malformed reply and the connection lives on.
//   - The client always sends HELLO and never falls back: a server that
//     rejects it (as malformed or as a version mismatch) fails the dial
//     with the typed error.

// ProtocolVersion is the wire version this build speaks. Version 1 was the
// implicit pre-HELLO protocol; version 2 added HELLO, commit-sequence tokens
// and the REPL_* family; version 3 made the shard-tagged pull and snapshot
// ops the only replication stream. Version 4 dropped BATCH and HELLO's
// feature bits and made a tiered node's snapshot stream one CHAMSEG2 segment.
// Version 5 drops the shard-manifest generation from REPL_PULL: the request
// carries a one-byte send-layout flag in its place, and the reply loses the
// generation. Version 6 makes every node's snapshot stream one CHAMSEG2
// segment, whichever engine it runs, so a follower of one engine bootstraps
// from a primary of the other; the frames are v5's. A peer of another
// version is refused at HELLO rather than diverging at its first bootstrap
// or misparsing the stream.
const ProtocolVersion uint16 = 6
