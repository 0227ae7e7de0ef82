package user

import (
	"testing"

	"fix/internal/lib"
)

func TestUse(t *testing.T) {
	use()
	lib.TestOnly()
	_ = lib.NewT().L.String()
	var c lib.Config
	c.TestSet = 1
	lib.Apply(c)
}
