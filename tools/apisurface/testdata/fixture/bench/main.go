package main

import "fix/internal/lib"

func main() { lib.BenchOnly(); lib.Apply(lib.Config{BenchSet: 1}) }
