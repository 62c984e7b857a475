// Fixture: a slice, a map and a scalar declared inside a task body and
// shared with the tasks it spawns; each becomes a container allocated
// through the enclosing task's Ctx.
package main

import (
	"fmt"

	"spd3"
)

func main() {
	eng, err := spd3.New(spd3.Options{Workers: 4})
	if err != nil {
		panic(err)
	}
	if _, err := eng.Run(func(c *spd3.Ctx) {
		squares := make([]int, 8)
		residues := make(map[int]int)
		total := 0
		c.FinishAsync(len(squares), func(c *spd3.Ctx, i int) {
			squares[i] = i * i
		})
		c.Finish(func(c *spd3.Ctx) {
			c.Async(func(c *spd3.Ctx) {
				for i := 0; i < len(squares); i++ {
					residues[squares[i]%3]++
					total += squares[i]
				}
			})
		})
		fmt.Println(total, len(residues), residues[1])
	}); err != nil {
		panic(err)
	}
}
