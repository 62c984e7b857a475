package mem

import (
	"sync"
	"unsafe"

	"spd3/internal/detect"
	"spd3/internal/stats"
	"spd3/internal/task"
)

// Map is an instrumented map from K to V. Like List it is backed by a
// growable shadow region with a dedicated length cell: cell 0 stands for
// the map's *structure* (its key set), and each key that is ever
// inserted gets its own shadow cell, assigned on first insert and never
// reused.
//
// The detection semantics mirror what the Go runtime's map checker
// enforces dynamically:
//
//   - inserting a new key or deleting a present one writes the length
//     cell (a structural mutation), so two unordered inserts — even of
//     different keys — are a race, exactly the "parallel conflicting
//     inserts" case;
//   - updating an existing key writes only that key's cell, so
//     unordered updates of *distinct* existing keys are not a race
//     (physically they are safe here: Map serializes its internal state
//     with a mutex, like List's atomic length);
//   - every lookup reads the length cell (a read of the structure) plus
//     the key's cell when present, so an unordered lookup against any
//     insert or delete is a race, matching Go's concurrent read/write
//     map fault.
//
// As with every container, physical safety is not the point: Map never
// corrupts itself, but unordered structural accesses are reported so
// the program can be fixed for plain map[K]V.
type Map[K comparable, V any] struct {
	sh  detect.Shadow
	reg *stats.Region

	mu   sync.Mutex
	data map[K]V
	cell map[K]int // key -> shadow cell, assigned densely from 1
	next int       // next cell to assign
}

// NewMap allocates an empty instrumented map named name in race
// reports.
func NewMap[K comparable, V any](s task.Scope, name string) *Map[K, V] {
	rt, t := s.Scope()
	var zero V
	sh := rt.Detector().NewShadow(detect.GrowableSpec(name, int(unsafe.Sizeof(zero))))
	created(sh, t, lengthCell+1) // the length cell
	return &Map[K, V]{
		sh:   sh,
		reg:  rt.Stats().Region(name, 0),
		data: make(map[K]V),
		cell: make(map[K]int),
		next: lengthCell + 1,
	}
}

// lookup returns the key's shadow cell (0 when absent) and value under
// the lock.
func (m *Map[K, V]) lookup(k K) (V, int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.data[k]
	if !ok {
		var zero V
		return zero, 0, false
	}
	return v, m.cell[k], true
}

// read records an instrumented read of the structure cell and, when
// present, the key's own cell.
func (m *Map[K, V]) read(c *task.Ctx, cell int) {
	c.CountAccess(m.reg, false)
	m.sh.Read(c.Task(), lengthCell)
	if cell != 0 {
		m.sh.Read(c.Task(), cell)
	}
}

// Get performs an instrumented lookup of k, returning the zero value
// when absent.
func (m *Map[K, V]) Get(c *task.Ctx, k K) V {
	v, _ := m.Lookup(c, k)
	return v
}

// Lookup performs an instrumented lookup of k with a presence flag (the
// `v, ok := m[k]` form).
func (m *Map[K, V]) Lookup(c *task.Ctx, k K) (V, bool) {
	v, cell, ok := m.lookup(k)
	m.read(c, cell)
	return v, ok
}

// Len performs an instrumented read of the map's size (a read of the
// structure cell: unordered against any insert or delete it is a race).
func (m *Map[K, V]) Len(c *task.Ctx) int {
	m.mu.Lock()
	n := len(m.data)
	m.mu.Unlock()
	m.read(c, 0)
	return n
}

// Set performs an instrumented write of k. Inserting a new key writes
// the structure cell and the key's cell; overwriting an existing key
// writes only the key's cell.
func (m *Map[K, V]) Set(c *task.Ctx, k K, v V) {
	m.mu.Lock()
	cell, existed := m.cell[k], false
	if _, ok := m.data[k]; ok {
		existed = true
	}
	if cell == 0 {
		cell = m.next
		m.next++
		m.cell[k] = cell
	}
	m.data[k] = v
	m.mu.Unlock()

	c.CountAccess(m.reg, true)
	if !existed {
		m.sh.Write(c.Task(), lengthCell)
	}
	m.sh.Write(c.Task(), cell)
}

// Update applies f to the value stored under k (the zero value when
// absent) as one instrumented read-modify-write of the key's cell; a
// key not yet present is inserted, which additionally writes the
// structure cell like Set.
func (m *Map[K, V]) Update(c *task.Ctx, k K, f func(V) V) {
	m.mu.Lock()
	cell := m.cell[k]
	v, existed := m.data[k]
	if cell == 0 {
		cell = m.next
		m.next++
		m.cell[k] = cell
	}
	m.data[k] = f(v)
	m.mu.Unlock()

	c.CountAccess(m.reg, false)
	c.CountAccess(m.reg, true)
	m.sh.Read(c.Task(), cell)
	if !existed {
		m.sh.Write(c.Task(), lengthCell)
	}
	m.sh.Write(c.Task(), cell)
}

// Delete performs an instrumented delete of k. Deleting a present key
// writes the structure cell and the key's cell; deleting an absent key
// still reads the structure (it observed the key's absence).
func (m *Map[K, V]) Delete(c *task.Ctx, k K) {
	m.mu.Lock()
	cell, present := m.cell[k], false
	if _, ok := m.data[k]; ok {
		present = true
		delete(m.data, k)
	}
	m.mu.Unlock()

	if !present {
		m.read(c, 0)
		return
	}
	c.CountAccess(m.reg, true)
	m.sh.Write(c.Task(), lengthCell)
	m.sh.Write(c.Task(), cell)
}

// Range calls f for every key/value pair in an unspecified order,
// stopping when f returns false. It is one instrumented read of the
// structure cell plus a read of each visited key's cell, so ranging in
// parallel with an unordered insert or update is reported as a race.
func (m *Map[K, V]) Range(c *task.Ctx, f func(K, V) bool) {
	m.mu.Lock()
	type kv struct {
		k    K
		v    V
		cell int
	}
	snap := make([]kv, 0, len(m.data))
	for k, v := range m.data {
		snap = append(snap, kv{k, v, m.cell[k]})
	}
	m.mu.Unlock()

	m.read(c, 0)
	for _, e := range snap {
		c.CountAccess(m.reg, false)
		m.sh.Read(c.Task(), e.cell)
		if !f(e.k, e.v) {
			return
		}
	}
}

// Unchecked returns a copy of the map's contents without
// instrumentation; see Array.Unchecked for when this is legitimate
// (sequential phases, e.g. reading results after the run). It copies so
// that later mutations through the instrumented API cannot be observed
// uninstrumented through the returned map.
func (m *Map[K, V]) Unchecked() map[K]V {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[K]V, len(m.data))
	for k, v := range m.data {
		out[k] = v
	}
	return out
}
