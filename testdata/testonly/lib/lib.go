// Package lib is the fixture the test-only-code guard runs over.
package lib

// Used is selected by app.
func Used() { bare() }

// Bare is named only by a shipped file of its own package.
func Bare() {}

// TestOnly is called only from lib_test.go: reported.
func TestOnly() {}

// Allowed is referenced by nothing but is allowlisted.
func Allowed() {}

// T carries one method app selects and one only a test selects.
type T struct{}

// Method is selected by app.
func (T) Method() {}

// TestOnlyMethod is selected only from lib_test.go: reported.
func (*T) TestOnlyMethod() {}

func bare() { Bare() }
