package wire

// HELLO is the first frame a feature-aware client (or replication follower)
// sends on a fresh connection: its protocol version and the feature bits it
// implements. The server replies with its own version and the negotiated
// intersection, plus its replication role and epoch so a redirecting client
// learns the topology for free.
//
// Compatibility:
//
//   - A peer that never sends HELLO (a pre-negotiation client, or a raw
//     tool) is still served, with zero features — in particular no
//     commit-sequence tokens and no replication ops, so responses are
//     byte-identical to the pre-HELLO protocol.
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
