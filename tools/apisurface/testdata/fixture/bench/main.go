package main

import "fix/internal/lib"

func main() { lib.BenchOnly() }
