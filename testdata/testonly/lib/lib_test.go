package lib

import "testing"

func TestLib(t *testing.T) {
	TestOnly()
	var x T
	x.TestOnlyMethod()
}
