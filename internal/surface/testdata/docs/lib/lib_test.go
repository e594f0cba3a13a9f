package lib

import (
	"go/ast"
	"testing"
)

func TestPresent(t *testing.T) {
	t.Run("row", func(t *testing.T) {
		if Present("a,b") != "a" || !ast.IsExported("Present") {
			t.Fatal("Present")
		}
	})
}
