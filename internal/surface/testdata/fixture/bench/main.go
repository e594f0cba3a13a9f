// Command bench stands for a caller module nested under the scanned one.
package main

import "fixture/lib"

func main() {
	var s lib.Sizer = lib.New(lib.Options{Size: 4})
	var b lib.Blob
	println(s.Len(), lib.New(lib.Options{}).Get(), lib.Describe("x"), len(b.Bytes))
}
