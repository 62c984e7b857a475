package detect

import (
	"fmt"
	"sort"
	"sync"

	"spd3/internal/stats"
)

// FactoryOpts carries the shared dependencies a detector factory may wire
// into the detector it builds: the race sink every detector reports to
// (its sampler, if any, gates the detector's checks; see Sink.SetSampler),
// the engine's stats recorder (nil when stats are disabled — factories
// must pass it through as-is, never substitute their own), and whether
// the detector is owned by one goroutine (see Owned). A factory that has
// no use for ownership ignores it.
type FactoryOpts struct {
	Sink  *Sink
	Stats *stats.Recorder
	Owned bool
}

// Owned reports whether d was built for one goroutine: every memory
// action it will ever check is made by the same goroutine, as in a trace
// replay or a run under the sequential executor, so it may publish its
// shadow state without synchronization. A detector says so through an
// optional Owned method; one without it is shared. Ownership is fixed
// when the detector is built (FactoryOpts.Owned) and never changes, and
// the task runtime refuses an owned detector under a parallel executor.
func Owned(d Detector) bool {
	o, ok := d.(interface{ Owned() bool })
	return ok && o.Owned()
}

// VerdictVersion names what every listed detector reports and counts when
// it replays a trace: its races, in emission order, and its stats
// snapshot. spd3d keeps a verdict record per stored segment and detector
// and trusts only records of this version, so a change to any listed
// detector's races or counters must bump it (internal/server's
// verdicts.golden fails until it does), and so must a change to which
// traces replay accepts: version 3 refuses a TaskEnd with finishes open.
const VerdictVersion = 3

// Factory builds one detector instance for one engine.
type Factory func(FactoryOpts) Detector

type registryEntry struct {
	factory    Factory
	hidden     bool
	sequential bool // RequiresSequential, asked once at registration
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]registryEntry)
)

// Register makes a detector constructible by name through New and listed
// by Names. It is intended to be called from a detector package's init
// (in the style of database/sql drivers), so adding a detector to the
// repository is one self-registering file. It panics if name is empty,
// already registered, or f is nil. Registration constructs the detector
// once with empty FactoryOpts to record RequiresSequential, so factories
// must tolerate a nil Sink and Stats at construction time (all in-repo
// factories do — the sink is only dereferenced when a race is reported).
func Register(name string, f Factory) {
	register(name, f, false)
}

// RegisterVariant registers a detector that is constructible by name
// through New but omitted from Names, keeping the user-facing detector
// list stable. No shipped detector uses it since SPD3's ablation
// variants were removed; the daemon's tests register their gated test
// doubles through it.
func RegisterVariant(name string, f Factory) {
	register(name, f, true)
}

func register(name string, f Factory, hidden bool) {
	if name == "" {
		panic("detect: Register with empty detector name")
	}
	if f == nil {
		panic("detect: Register with nil factory for " + name)
	}
	// Asked outside the lock: a variant's factory may itself call New.
	sequential := f(FactoryOpts{}).RequiresSequential()
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("detect: Register called twice for " + name)
	}
	registry[name] = registryEntry{factory: f, hidden: hidden, sequential: sequential}
}

// New builds the named detector. The error lists the registered names so
// a typo on a command line is self-explaining.
func New(name string, opts FactoryOpts) (Detector, error) {
	registryMu.RLock()
	e, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("spd3: unknown detector %q (have %v)", name, Names())
	}
	return e.factory(opts), nil
}

// Names returns the registered, non-hidden detector names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name, e := range registry {
		if !e.hidden {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Registered reports whether name is constructible (hidden or not).
func Registered(name string) bool {
	registryMu.RLock()
	defer registryMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Sequential reports whether the named detector (hidden or not) is only
// correct under depth-first execution; false for an unknown name.
func Sequential(name string) bool {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return registry[name].sequential
}

// Description describes one registered detector for listing surfaces
// (cmd tools, the spd3d daemon's /v2/detectors endpoint).
type Description struct {
	// Name is the registry name the detector is constructible under.
	Name string `json:"name"`
	// Sequential reports RequiresSequential: the detector is only
	// correct under depth-first execution, so it can consume only
	// traces recorded sequentially and cannot run under the pool.
	Sequential bool `json:"sequential"`
}

// Describe returns a Description of every non-hidden detector, sorted by
// name. It reads the registry; no detector is constructed.
func Describe() []Description {
	names := Names()
	out := make([]Description, 0, len(names))
	for _, name := range names {
		out = append(out, Description{Name: name, Sequential: Sequential(name)})
	}
	return out
}

func init() {
	// The uninstrumented baseline lives in this package, so it
	// registers here; algorithm packages register themselves.
	Register("none", func(FactoryOpts) Detector { return Nop{} })
}
