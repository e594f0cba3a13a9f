package chameleon

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"

	"chameleon/internal/faultfs"
)

// replMetaName is the sidecar persisting the node's replication epoch and
// fenced verdict. Fencing that lives only in process
// memory evaporates on restart: a deposed primary that crashed after being
// fenced would come back believing it is still primary and accept writes at
// a stale epoch — exactly the split-brain fencing exists to prevent. The
// sidecar is rewritten (tmp + fsync + rename + dir fsync) on every epoch or
// fence transition, before the transition is acknowledged to anyone, so the
// verdict survives the process.
//
// Absence and corruption both read as "no recorded state" (epoch 0): a
// pre-failover directory starts fresh, and a torn write loses at most the
// newest transition — the node then rejoins at an older epoch and is
// re-fenced by the first peer (or pull reply) carrying the newer one.
const replMetaName = "repl.meta"

type replMeta struct {
	Epoch  uint64 `json:"epoch"`
	Fenced bool   `json:"fenced"`
}

// readReplMeta loads the sidecar, tolerating absence and corruption.
func readReplMeta(fsys faultfs.FS, dir string) (epoch uint64, fenced bool) {
	f, err := fsys.OpenFile(filepath.Join(dir, replMetaName), os.O_RDONLY, 0)
	if err != nil {
		return 0, false
	}
	data, err := io.ReadAll(f)
	f.Close() //nolint:errcheck
	if err != nil {
		return 0, false
	}
	var m replMeta
	if json.Unmarshal(data, &m) != nil {
		return 0, false
	}
	return m.Epoch, m.Fenced
}

// writeReplMeta persists the sidecar with the snapshot discipline, including
// its own directory fsync (no checkpoint's rename seals it, so it must make
// its own rename durable).
func writeReplMeta(fsys faultfs.FS, dir string, epoch uint64, fenced bool) error {
	data, err := json.Marshal(replMeta{Epoch: epoch, Fenced: fenced})
	if err != nil {
		return err
	}
	return writeFileAtomic(fsys, filepath.Join(dir, replMetaName), writeBytes(data))
}

// LoadReplState reads the persisted replication epoch and fenced verdict
// (zero values when none was ever saved).
func (d *DurableIndex) LoadReplState() (epoch uint64, fenced bool) {
	return readReplMeta(d.fs, d.dir)
}

// SaveReplState durably records the replication epoch and fenced verdict.
// Callers (the replication state machine) serialize their own calls; the
// write itself is atomic via rename.
func (d *DurableIndex) SaveReplState(epoch uint64, fenced bool) error {
	return writeReplMeta(d.fs, d.dir, epoch, fenced)
}

// LoadReplState reads the sharded handle's persisted replication state. The
// sidecar lives at the root directory: role and epoch are properties of the
// node, not of any one shard.
func (s *ShardedIndex) LoadReplState() (epoch uint64, fenced bool) {
	return readReplMeta(s.fs, s.dir)
}

// SaveReplState durably records the sharded handle's replication state.
func (s *ShardedIndex) SaveReplState(epoch uint64, fenced bool) error {
	return writeReplMeta(s.fs, s.dir, epoch, fenced)
}
