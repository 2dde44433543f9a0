package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var t lib.T
	t.Used()
	fmt.Println(t)
}
