// Command app is the reach fixture's product code.
package main

import (
	"flag"
	"fmt"

	"stellaris/internal/lint/testdata/src/reach"
)

func main() {
	var s reach.Shape = &reach.Square{Side: 2}
	fmt.Println(reach.Used(), s.Area(), reach.Describe(reach.Box{}), reach.Code(2), reach.Err{})
	reach.Stale()
	o := reach.RunOptions{Name: "app", Label: "x"}
	flag.BoolVar(&o.Quiet, "quiet", false, "print less")
	flag.IntVar(&o.Net.Port, "port", 0, "listen port")
	fmt.Println(reach.Start(o))
}
