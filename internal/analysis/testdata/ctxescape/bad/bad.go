// Package bad exercises the ctxescape analyzer: task contexts and Cilk
// frames leaving the dynamic extent of the task or procedure they belong
// to.
package bad

import "spd3"

var leaked *spd3.Ctx

type holder struct{ c *spd3.Ctx }

func escapes(eng *spd3.Engine) {
	var h holder
	var box [1]*spd3.Ctx
	_, _ = eng.Run(func(c *spd3.Ctx) {
		c.Async(func(inner *spd3.Ctx) {
			_ = inner // the spawned task's own Ctx: fine
		})
		c.Async(func(_ *spd3.Ctx) {
			c.Finish(func(c *spd3.Ctx) {}) // want `\*spd3\.Ctx "c" captured by a task spawned by Async`
		})
		leaked = c       // want `stored in package-level variable "leaked"`
		h.c = c          // want `stored in a struct field`
		box[0] = c       // want `stored in a collection element`
		_ = holder{c: c} // want `stored in a composite literal`
	})
	_, _ = h, box
}

var leakedFrame *spd3.Cilk

type frameHolder struct{ k *spd3.Cilk }

func frameEscapes(eng *spd3.Engine) {
	var h frameHolder
	frames := map[int]*spd3.Cilk{}
	_, _ = eng.Run(func(c *spd3.Ctx) {
		spd3.RunCilk(c, func(k *spd3.Cilk) {
			k.Spawn(func(k *spd3.Cilk) {
				k.Sync() // the spawned procedure's own frame: fine
			})
			spd3.RunCilk(k.Ctx(), func(inner *spd3.Cilk) {
				k.Sync() // a nested procedure on the same task: fine
			})
			k.Spawn(func(child *spd3.Cilk) {
				k.Sync() // want `\*spd3\.Cilk "k" captured by a task spawned by Spawn`
			})
			c.Async(func(c *spd3.Ctx) {
				k.Spawn(func(*spd3.Cilk) {}) // want `\*spd3\.Cilk "k" captured by a task spawned by Async`
			})
			leakedFrame = k     // want `\*spd3\.Cilk stored in package-level variable "leakedFrame"`
			h.k = k             // want `\*spd3\.Cilk stored in a struct field: a Cilk is only valid within its procedure`
			frames[0] = k       // want `\*spd3\.Cilk stored in a collection element`
			_ = []*spd3.Cilk{k} // want `\*spd3\.Cilk stored in a composite literal`
		})
	})
	_, _ = h, frames
}
