package main

import "fixture/lib"

func main() {
	lib.Used()
	var t lib.T
	t.Method()
}
