// Package lib is the root package of the unread-export fixture.
package lib

// ExampleOnly is read only by example_test.go.
func ExampleOnly() {}
