// Package lib is the surface check's fixture: one case of each kind the
// scan must report or pass over.
package lib

// Options configures a Store.
type Options struct {
	// Size is set by the caller module; New defaults it too.
	Size int
	// TestOnly is set only by lib_test.go; New's default does not count as
	// a setter, so the scan reports it.
	TestOnly int
}

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
	return &Store{n: o.Size * o.TestOnly}
}

// Get is called only by the caller module.
func (s *Store) Get() int { return s.n }

// Len is called only through Sizer.
func (s *Store) Len() int { return s.n }

// Uncalled is called only by lib_test.go, so the scan reports it.
func (s *Store) Uncalled() int { return 0 }
