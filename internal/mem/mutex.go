package mem

import "spd3/internal/task"

// NewMutex returns an instrumented lock registered with the scope's
// runtime. A lock has no shadowed cells, so it has no creation write.
func NewMutex(s task.Scope) *Mutex {
	rt, _ := s.Scope()
	return &Mutex{l: rt.NewLock()}
}

// Lock acquires the mutex and then reports the acquire, so the detector's
// lock state transfer happens inside the critical section.
func (m *Mutex) Lock(c *task.Ctx) {
	m.mu.Lock()
	c.Acquire(m.l)
}

// Unlock reports the release and then frees the mutex, so the detector's
// lock state is published before another task can acquire.
func (m *Mutex) Unlock(c *task.Ctx) {
	c.Release(m.l)
	m.mu.Unlock()
}
