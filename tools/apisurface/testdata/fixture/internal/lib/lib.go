// Package lib declares one exported name of each class.
package lib

// Prod is called by another package's code.
func Prod() int { return 1 }

// BenchOnly is called only by the benchmark module.
func BenchOnly() int { return 2 }

// TestOnly is called only by another package's test.
func TestOnly() int { return 3 }

// OwnTestOnly is called only by lib's own test.
func OwnTestOnly() int { return 4 }

// Unused is called by nothing.
func Unused() int { return OwnTestOnly() }

// T is never named outside lib, but NewT hands one out.
type T struct{}

// NewT is called by another package's code.
func NewT() *T { return &T{} }

// String satisfies fmt.Stringer.
func (*T) String() string { return "t" }

// Hidden is called by nothing.
func (*T) Hidden() int { return 0 }
