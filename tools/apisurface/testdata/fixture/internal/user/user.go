package user

import (
	"fmt"

	"fix/internal/lib"
)

func use() { fmt.Println(lib.Prod(), lib.NewT()) }
