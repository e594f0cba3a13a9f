// Package format holds the error every reader of an on-disk file returns
// for a format this build no longer reads. A format change ships no reader
// for the format it retires: a file in it is refused before anything on
// disk changes, and the last build that reads it carries it forward
// (DESIGN.md §7).
package format

import "errors"

// ErrNeedsUpgrade marks a file written in a retired format. The wrapping
// error names the file.
var ErrNeedsUpgrade = errors.New("written in a retired format: open it with the last build that reads it, BulkLoad what Range returns, and close it (DESIGN.md §7)")
