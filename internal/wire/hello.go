package wire

// HELLO is the first frame every client (and replication follower) sends on
// a fresh connection: its protocol version and the feature bits it
// implements. The server replies with its own version and the intersection
// of the offered bits with what it serves, plus its replication role and
// epoch so a redirecting client learns the topology for free.
//
// Compatibility:
//
//   - HELLO is mandatory. A first request that decodes but is not HELLO (a
//     pre-negotiation v1 peer, or a raw tool) gets the typed
//     ErrCodeVersionMismatch and a hang-up; a frame that does not decode
//     gets the per-request malformed reply, as anywhere in the stream.
//   - After HELLO every write reply carries its commit-sequence token, and
//     the REPL_* family is served iff the server runs replication.
//   - The client always sends HELLO and never falls back: a server that
//     rejects it (as malformed or as a version mismatch) fails the dial
//     with the typed error.
//   - Version mismatch (both sides speak HELLO but different versions): the
//     server rejects with the typed ErrCodeVersionMismatch and closes, so a
//     mismatched pair fails fast instead of decoding garbage mid-stream.
const (
	// ProtocolVersion is the wire version this build speaks. Version 1 is
	// the implicit pre-HELLO protocol (it never appears in a HELLO frame);
	// version 2 added HELLO itself, commit-sequence tokens, and the REPL_*
	// family; version 3 made the shard-tagged pull and snapshot ops the only
	// replication stream (v2's unsharded pair is retired), so a v2 follower
	// is refused at HELLO rather than mid-stream.
	ProtocolVersion uint16 = 3

	// FeatSeqTokens: INSERT/DELETE/BATCH OK responses carry the commit
	// sequence the write landed at (Response.Seq/HasSeq) — the
	// read-your-writes token.
	FeatSeqTokens uint64 = 1 << 0
	// FeatRepl: the REPL_* opcode family is served (per-shard pull and
	// snapshot streaming with manifest shipping, fence, promote, GET_SEQ).
	FeatRepl uint64 = 1 << 1

	// LocalFeatures is the full feature set this build implements; a HELLO
	// negotiation lands on the intersection of both sides' sets.
	LocalFeatures = FeatSeqTokens | FeatRepl
)
