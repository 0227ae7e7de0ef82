package user

import (
	"fmt"

	"fix/internal/lib"
)

func use() {
	c := lib.Config{Keyed: 1}
	c.Assigned++
	p := &c.Addressed
	*p = c.Read
	fmt.Println(lib.Prod(), lib.NewT(), lib.Apply(c))
}
