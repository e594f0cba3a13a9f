package ilock

// Held reports whether the interval is currently locked (any kind).
func (t *Table) Held(id uint64) bool {
	return stateOf(t.slot(id).Load()) != free
}

// Readers reports the number of shared holders (0 when free or exclusively
// held).
func (t *Table) Readers(id uint64) int {
	if v := stateOf(t.slot(id).Load()); v > 0 {
		return int(v)
	}
	return 0
}

// Seq reports the interval's current sequence number.
func (t *Table) Seq(id uint64) uint32 {
	return seqOf(t.slot(id).Load())
}
