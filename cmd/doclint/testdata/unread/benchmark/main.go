// Command benchmark reads one store export from outside the walked
// library packages.
package main

import "example.com/lib/internal/store"

// Unchecked is an export of a main package, which the check skips.
func Unchecked() {}

func main() {
	store.BenchOnly()
}
