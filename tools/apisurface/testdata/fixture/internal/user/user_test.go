package user

import (
	"testing"

	"fix/internal/lib"
)

func TestUse(t *testing.T) { use(); lib.TestOnly(); _ = lib.NewT().L.String() }
