package store

import "testing"

func TestTestOnly(t *testing.T) {
	TestOnly()
}
