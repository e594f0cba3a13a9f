// Package lib is the surface check's fixture: one case of each kind the
// scan must report or pass over.
package lib

import (
	"fmt"
	"io"
)

// Options configures a Store.
type Options struct {
	// Size is set by the caller module; New defaults it too.
	Size int
	// TestOnly is set only by lib_test.go; New's default does not count as
	// a setter, so the scan reports it.
	TestOnly int
	// Grow is set by the caller module only through one of its fields.
	Grow GrowConfig
}

// GrowConfig is scanned like Options: a struct whose name ends in Config.
type GrowConfig struct {
	// Factor is set by the caller module, as Options.Grow.Factor.
	Factor int
	// Step is set only by DefaultGrowConfig, in this package, so the scan
	// reports it.
	Step int
}

// DefaultGrowConfig fills in both fields.
func DefaultGrowConfig() GrowConfig { return GrowConfig{Factor: 2, Step: 1} }

// Grow returns n grown by c.
func Grow(n int, c GrowConfig) int { return n*max(c.Factor, 1) + c.Step }

// Store is built by the caller module.
type Store struct{ n int }

// Sizer is the interface through which the caller reaches Len.
type Sizer interface{ Len() int }

// New builds a Store, filling in defaults.
func New(o Options) *Store {
	if o.Size == 0 {
		o.Size = 8
	}
	if o.TestOnly == 0 {
		o.TestOnly = 1
	}
	return &Store{n: Grow(o.Size, o.Grow) * o.TestOnly}
}

// Get is called only by the caller module.
func (s *Store) Get() int { return s.n }

// Len is called only through Sizer.
func (s *Store) Len() int { return s.n }

// Uncalled is called only by lib_test.go, so the scan reports it.
func (s *Store) Uncalled() int { return 0 }

// Blob satisfies io.WriterTo, but no non-test code puts a Blob in an
// interface or calls WriteTo, so the scan reports WriteTo.
type Blob struct{ Bytes []byte }

// WriteTo is reached by no caller and through no conversion.
func (b Blob) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(b.Bytes)
	return int64(n), err
}

// Label is put in an interface by Describe, so fmt may call String.
type Label string

// String is reached only through fmt.Stringer, after Describe's conversion.
func (l Label) String() string { return "label " + string(l) }

// Describe converts l to an interface (fmt.Sprint's ...any).
func Describe(l Label) string { return fmt.Sprint(l) }

// Orphan is named only by its own method's receiver and by lib_test.go, so
// the scan reports it, and Reset too.
type Orphan struct{ n int }

// Reset is called only by lib_test.go.
func (o *Orphan) Reset() { o.n = 0 }
