// Package lib holds one export of each kind the dead-API gate tells apart.
package lib

// T is referenced by main.
type T struct{}

// Used is called by main.
func (T) Used() {}

// String satisfies fmt.Stringer, so fmt calls it without naming it.
func (T) String() string { return "t" }

// Kept is referenced only by a test, and allowlisted.
func Kept() {}

// Unused is referenced nowhere.
func Unused() {}
