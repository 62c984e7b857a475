// Package writedom holds a read of a cell the same step already wrote.
// The eliminator keeps it — eliding it would drop the reader record
// later write checks compare against — and records a writedom skip.
package writedom

import "spd3"

func writeThenRead(eng *spd3.Engine) {
	u := spd3.NewArray[int](eng, "u", 4)
	_, _ = eng.Run(func(c *spd3.Ctx) {
		c.FinishAsync(2, func(c *spd3.Ctx, i int) {
			u.Set(c, i, i*2)
			_ = u.Get(c, i)
		})
	})
}
