package lib

import "testing"

func TestOwn(t *testing.T) {
	OwnTestOnly()
	seamOnly()
	countdown(3)
	Apply(Config{OwnTestSet: 1})
}
