// Command bench stands for a caller module nested under the scanned one.
package main

import "fixture/lib"

func main() {
	o := lib.Options{Size: 4}
	o.Grow.Factor = 3
	var s lib.Sizer = lib.New(o)
	var b lib.Blob
	println(s.Len(), lib.New(lib.Options{}).Get(), lib.Describe("x"), len(b.Bytes), lib.Grow(1, lib.DefaultGrowConfig()))
}
