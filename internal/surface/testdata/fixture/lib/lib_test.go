package lib

import "testing"

func TestStore(t *testing.T) {
	s := New(Options{TestOnly: 2})
	if s.Get() != 16 || s.Uncalled() != 0 {
		t.Fatal(s.Get())
	}
}
