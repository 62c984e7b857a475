// Fixture: a shared slice of a package-local struct, written by
// spawned tasks. The element type is declared in this module, so its
// type string carries the module path; the slice is still plain shared
// data and must be rewritten like any other.
package main

import (
	"fmt"

	"spd3"
)

type point struct{ x, y int }

func main() {
	eng, err := spd3.New(spd3.Options{Workers: 4})
	if err != nil {
		panic(err)
	}
	pts := make([]point, 8)
	if _, err := eng.Run(func(c *spd3.Ctx) {
		c.FinishAsync(4, func(c *spd3.Ctx, p int) {
			for i := p; i < len(pts); i += 4 {
				pts[i] = point{x: i, y: i * i}
			}
		})
	}); err != nil {
		panic(err)
	}
	fmt.Println(pts[3])
}
