package lib

import (
	"io"
	"testing"
)

func TestStore(t *testing.T) {
	s := New(Options{TestOnly: 2})
	if s.Get() != 16 || s.Uncalled() != 0 {
		t.Fatal(s.Get())
	}
	var o Orphan
	o.Reset()
	if n, err := (Blob{}).WriteTo(io.Discard); n != 0 || err != nil {
		t.Fatal(n, err)
	}
}
