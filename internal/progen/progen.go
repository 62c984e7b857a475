// Package progen generates random structured async/finish programs and
// executes them against any detector. It powers the property-based tests
// that validate the paper's soundness and precision theorems:
//
//   - Theorem 2 (soundness): if the ground-truth oracle finds a racy
//     schedule, every monitored execution must report a race.
//   - Theorem 3 (precision): if the oracle finds no race, no execution
//     may report one.
//   - DPST determinism (§3.2): for race-free inputs, every execution
//     builds the same tree.
//
// Programs are finite trees of Seq/Async/Finish/Read/Write nodes over a
// small set of shared variables; every memory access carries a unique
// site ID so executions can be compared structurally across schedules.
package progen

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"spd3/internal/detect"
	"spd3/internal/task"
)

// Op discriminates program nodes.
type Op uint8

const (
	// Seq runs its children in order.
	Seq Op = iota
	// Async spawns its children as one child task.
	Async
	// Finish runs its children under a finish scope.
	Finish
	// Read reads shared variable Var.
	Read
	// Write writes shared variable Var.
	Write
	// Locked runs its children (accesses only) holding lock Var.
	// Bodies contain no task operations, so no schedule can deadlock.
	Locked
	// Loop runs its children Var times in sequence (Var holds the trip
	// count, not a variable index). Generated only under Config.Loops;
	// rendered as a counted for-loop with constant bounds, which is
	// exactly the shape the §5.5 eliminator's hoist rule targets.
	Loop
)

// Node is one program node.
type Node struct {
	Op       Op
	Var      int // for Read/Write
	Site     int // unique access site ID (Read/Write only)
	Children []*Node
}

// Program is a randomly generated async/finish program.
type Program struct {
	Root  *Node
	Vars  int
	Locks int
	Sites int
	Seed  int64
}

// Config bounds program generation.
type Config struct {
	Vars     int // number of shared variables (default 4)
	MaxDepth int // nesting bound (default 5)
	MaxStmts int // approximate statement budget (default 40)

	// Locks > 0 adds that many mutexes and generates well-nested
	// critical sections around access runs. Lock-order ground truth is
	// per observed trace; compare against FastTrack, not SPD3.
	Locks int

	// Loops adds counted sequential loops (2–4 trips) over generated
	// statement lists. Loops change no concurrency structure — their
	// bodies run in the spawning task — but give the static check
	// eliminator loop-invariant accesses to hoist.
	Loops bool
}

// Generate builds a random program from seed.
func Generate(seed int64, cfg Config) *Program {
	if cfg.Vars <= 0 {
		cfg.Vars = 4
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 5
	}
	if cfg.MaxStmts <= 0 {
		cfg.MaxStmts = 40
	}
	g := &generator{rng: rand.New(rand.NewSource(seed)), cfg: cfg, budget: cfg.MaxStmts}
	root := &Node{Op: Seq}
	g.fill(root, 0)
	return &Program{Root: root, Vars: cfg.Vars, Locks: cfg.Locks, Sites: g.sites, Seed: seed}
}

type generator struct {
	rng    *rand.Rand
	cfg    Config
	budget int
	sites  int
}

// fill appends a random statement list to parent. The root gets a longer
// list so that most generated programs actually spawn tasks.
func (g *generator) fill(parent *Node, depth int) {
	n := 1 + g.rng.Intn(4)
	if depth == 0 {
		n = 4 + g.rng.Intn(5)
	}
	for i := 0; i < n && g.budget > 0; i++ {
		g.budget--
		parent.Children = append(parent.Children, g.stmt(depth))
	}
}

func (g *generator) stmt(depth int) *Node {
	r := g.rng.Intn(100)
	switch {
	case depth < g.cfg.MaxDepth && r < 25:
		n := &Node{Op: Async}
		g.fill(n, depth+1)
		return n
	case depth < g.cfg.MaxDepth && r < 40:
		n := &Node{Op: Finish}
		g.fill(n, depth+1)
		return n
	case g.cfg.Locks > 0 && r < 55:
		n := &Node{Op: Locked, Var: g.rng.Intn(g.cfg.Locks)}
		k := 1 + g.rng.Intn(3)
		for i := 0; i < k && g.budget > 0; i++ {
			g.budget--
			n.Children = append(n.Children, g.access())
		}
		return n
	case g.cfg.Loops && depth < g.cfg.MaxDepth && r < 62:
		n := &Node{Op: Loop, Var: 2 + g.rng.Intn(3)}
		g.fill(n, depth+1)
		return n
	case r < 70:
		return g.accessKind(Read)
	default:
		return g.accessKind(Write)
	}
}

func (g *generator) access() *Node {
	if g.rng.Intn(100) < 60 {
		return g.accessKind(Read)
	}
	return g.accessKind(Write)
}

func (g *generator) accessKind(op Op) *Node {
	n := &Node{Op: op, Var: g.rng.Intn(g.cfg.Vars), Site: g.sites}
	g.sites++
	return n
}

// AccessHook observes each executed access; site is the access's unique
// site ID. Used by the DPST-determinism test; may be nil.
type AccessHook func(c *task.Ctx, site int, isWrite bool)

// Run executes p on rt against the detector's shadow memory and returns
// the runtime error, if any.
func Run(rt *task.Runtime, p *Program, hook AccessHook) error {
	env := &execEnv{sh: rt.Detector().NewShadow(detect.Spec("v", p.Vars, 8)), hook: hook}
	env.locks = make([]*detect.Lock, p.Locks)
	env.mus = make([]sync.Mutex, p.Locks)
	for i := range env.locks {
		env.locks[i] = rt.NewLock()
	}
	return rt.Run(func(c *task.Ctx) {
		env.execList(c, p.Root.Children)
	})
}

type execEnv struct {
	sh    detect.Shadow
	locks []*detect.Lock
	mus   []sync.Mutex // real exclusion backing the detect.Locks
	hook  AccessHook
}

func (e *execEnv) execList(c *task.Ctx, ns []*Node) {
	for _, n := range ns {
		e.execNode(c, n)
	}
}

func (e *execEnv) execNode(c *task.Ctx, n *Node) {
	switch n.Op {
	case Seq:
		e.execList(c, n.Children)
	case Async:
		c.Async(func(c *task.Ctx) { e.execList(c, n.Children) })
	case Finish:
		c.Finish(func(c *task.Ctx) { e.execList(c, n.Children) })
	case Locked:
		// Deferred, so a body that panics still releases both.
		e.mus[n.Var].Lock()
		defer e.mus[n.Var].Unlock()
		c.Acquire(e.locks[n.Var])
		defer c.Release(e.locks[n.Var])
		e.execList(c, n.Children)
	case Loop:
		for i := 0; i < n.Var; i++ {
			e.execList(c, n.Children)
		}
	case Read:
		if e.hook != nil {
			e.hook(c, n.Site, false)
		}
		e.sh.Read(c.Task(), n.Var)
	case Write:
		if e.hook != nil {
			e.hook(c, n.Site, true)
		}
		e.sh.Write(c.Task(), n.Var)
	}
}

// String renders the program as async/finish pseudocode, for debugging
// failed seeds.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// seed %d\n", p.Seed)
	var walk func(n *Node, indent string)
	walk = func(n *Node, indent string) {
		switch n.Op {
		case Seq:
			for _, ch := range n.Children {
				walk(ch, indent)
			}
		case Async:
			fmt.Fprintf(&b, "%sasync {\n", indent)
			for _, ch := range n.Children {
				walk(ch, indent+"  ")
			}
			fmt.Fprintf(&b, "%s}\n", indent)
		case Finish:
			fmt.Fprintf(&b, "%sfinish {\n", indent)
			for _, ch := range n.Children {
				walk(ch, indent+"  ")
			}
			fmt.Fprintf(&b, "%s}\n", indent)
		case Locked:
			fmt.Fprintf(&b, "%slocked l%d {\n", indent, n.Var)
			for _, ch := range n.Children {
				walk(ch, indent+"  ")
			}
			fmt.Fprintf(&b, "%s}\n", indent)
		case Loop:
			fmt.Fprintf(&b, "%sloop %d {\n", indent, n.Var)
			for _, ch := range n.Children {
				walk(ch, indent+"  ")
			}
			fmt.Fprintf(&b, "%s}\n", indent)
		case Read:
			fmt.Fprintf(&b, "%s_ = v[%d] // site %d\n", indent, n.Var, n.Site)
		case Write:
			fmt.Fprintf(&b, "%sv[%d] = _ // site %d\n", indent, n.Var, n.Site)
		}
	}
	walk(p.Root, "")
	return b.String()
}

// Stats summarizes a program's shape. Loops count as statements of the
// task that runs them; accesses counts static sites, not executions.
func (p *Program) Stats() (asyncs, finishes, accesses int) {
	var walk func(n *Node)
	walk = func(n *Node) {
		switch n.Op {
		case Async:
			asyncs++
		case Finish:
			finishes++
		case Read, Write:
			accesses++
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(p.Root)
	return
}
