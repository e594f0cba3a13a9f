package wal

// AppendInsert logs Insert(key, val).
func (l *Log) AppendInsert(key, val uint64) error {
	return l.Append(Record{Op: OpInsert, Key: key, Val: val})
}

// AppendDelete logs Delete(key).
func (l *Log) AppendDelete(key uint64) error {
	return l.Append(Record{Op: OpDelete, Key: key})
}

// Err reports the sticky I/O error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// NextSeq is the sequence the tracker expects the next batch to contain (or
// overlap from below).
func (t *SeqTracker) NextSeq() uint64 { return t.Applied + 1 }

// Append frames, checksums, and writes r, fsyncing per the sync policy. When
// it returns nil under SyncEveryOp, the record is durable.
func (l *Log) Append(r Record) error {
	return l.AppendAll([]Record{r})
}
