// Package lib declares one exported name of each class.
package lib

// Prod is called by another package's code.
func Prod() int { return measure(sq{}) }

// BenchOnly is called only by the benchmark module.
func BenchOnly() int { return 2 }

// TestOnly is called only by another package's test.
func TestOnly() int { return 3 }

// OwnTestOnly is called only by lib's own test.
func OwnTestOnly() int { return 4 }

// Unused is called by nothing.
func Unused() int { return OwnTestOnly() }

// T is never named outside lib, but NewT hands one out.
type T struct {
	// L is never named outside lib either, but a T carries one.
	L Label
}

// NewT is called by another package's code.
func NewT() *T { return &T{} }

// String satisfies fmt.Stringer.
func (*T) String() string { return "t" }

// Hidden is called by nothing.
func (*T) Hidden() int { return 0 }

// Label is what a T carries.
type Label int

// String satisfies fmt.Stringer, and only internal/user's test calls it.
func (Label) String() string { return "label" }

// sq.area is reached only through shape, an interface only this package
// uses: it is not a seam.
type shape interface{ area() int }
type sq struct{}

func (sq) area() int      { return 1 }
func measure(s shape) int { return s.area() }

// Only lib's own test calls seamOnly and countdown (which also calls
// itself): both are seams. Nothing calls dead.
func seamOnly() int { return 5 }
func countdown(n int) int {
	if n > 0 {
		return countdown(n - 1)
	}
	return 0
}
func dead() int { return 6 }

// Config is an input struct: each exported field has one kind of writer.
// Defaulted is written only by lib's own code and Read only read, so
// nothing outside lib sets either; hidden is not listed.
type Config struct {
	Keyed, Assigned, Addressed    int
	BenchSet, TestSet, OwnTestSet int
	Defaulted, Read               int
	hidden                        int
}

// Apply is called by another package's code.
func Apply(c Config) int {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
	c.hidden = c.Defaulted
	return c.hidden
}
