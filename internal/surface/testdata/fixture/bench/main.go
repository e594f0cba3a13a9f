// Command bench stands for a caller module nested under the scanned one.
package main

import "fixture/lib"

func main() {
	var s lib.Sizer = lib.New(lib.Options{Size: 4})
	println(s.Len(), lib.New(lib.Options{}).Get())
}
