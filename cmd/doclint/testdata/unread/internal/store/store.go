// Package store holds one export for each way the fixture reads one.
package store

// Dead is read by nothing.
func Dead() {}

// TestOnly is read only by store_test.go.
func TestOnly() {}

// BenchOnly is read only by the benchmark directory.
func BenchOnly() int { return Bare() }

// Bare is read only bare, by BenchOnly in this package.
func Bare() int { return 1 }

// Allowed is read by nothing but has an allowlist entry.
func Allowed() {}
