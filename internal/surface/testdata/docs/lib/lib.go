// Package lib is the doc check's fixture: the declarations its DESIGN.md
// cites.
package lib

// Present is cited by DESIGN.md §1; this comment's DESIGN.md §2 dangles.
import "strings"

// Store is cited through its method and field.
type Store struct{ n int }

// Len is cited as Store.Len.
func (s *Store) Len() int { return s.n }

// Present is cited as lib.Present.
func Present(s string) string {
	before, _, _ := strings.Cut(s, ",")
	return before
}
