package lib_test

import "example.com/lib"

func ExampleExampleOnly() {
	lib.ExampleOnly()
}
