package task

// Cilk provides Cilk-style spawn/sync parallelism as sugar over
// async/finish, realizing the paper's §2 claim that async/finish
// generalizes spawn/sync ("the algorithm presented in this paper is
// applicable to async/finish constructs, which means it also handles
// spawn/sync constructs").
//
// Semantics (Cilk-5): Spawn forks a child that runs in parallel with the
// remainder of the current procedure; Sync blocks until every child this
// procedure has spawned so far has completed (including their transitive
// spawn trees, because children sync implicitly on return); every
// procedure syncs implicitly before returning.
//
// The embedding: the spawns between two syncs of one procedure live in
// one finish scope, opened lazily at the first Spawn and closed at the
// next Sync; each spawned child is an async whose procedure runs under
// RunCilk, giving it the implicit final sync. Detectors therefore see
// plain async/finish events and need no spawn/sync support — SPD3's DPST
// for a Cilk program is exactly the tree its §2 discussion describes.
//
// A Cilk is a procedure's frame: the task it runs on and the scope its
// sync regions open, one after another. RunCilk takes it from the
// executing worker's free list and returns it there after the final
// Sync, so a *Cilk is valid only inside its procedure, like a Ctx inside
// its task body: do not retain it, and do not use it from a spawned
// child, which gets a frame of its own.
type Cilk struct {
	c    *Ctx
	prev *scope // the scope to restore at the next Sync
	open bool   // a sync region is open: s is c's innermost finish
	s    scope
}

// RunCilk executes body as a Cilk procedure on the current task: body
// may Spawn and Sync, and a final implicit Sync runs before RunCilk
// returns. A body that panics takes the same exit — the final Sync joins
// its children, and the frame goes back to the worker — before the panic
// goes on.
func RunCilk(c *Ctx, body func(k *Cilk)) {
	w := c.w
	k := w.frames.get()
	//spd3vet:ignore runtime-internal: the frame is a same-task view over c, returned to the worker below before c's body goes on; a spawned child runs in a frame of its own
	k.c = c
	defer func() {
		k.Sync()
		k.c = nil
		w.frames.put(k)
	}()
	body(k)
}

// Ctx returns the underlying task context (for instrumented memory
// accesses within the procedure).
func (k *Cilk) Ctx() *Ctx { return k.c }

// Spawn forks child as a Cilk procedure running in parallel with the
// remainder of this procedure, joined at the next Sync.
func (k *Cilk) Spawn(child func(k *Cilk)) {
	if !k.open {
		k.prev = k.c.beginFinish(&k.s)
		k.open = true
	}
	k.c.spawn(nil, child)
}

// Sync blocks until every procedure spawned so far (and its transitive
// spawn tree) has completed. A Sync with no outstanding spawns is a
// no-op, as in Cilk.
func (k *Cilk) Sync() {
	if !k.open {
		return
	}
	k.c.endFinish(k.prev)
	k.open = false
	k.prev = nil
}
