package analysis

import "fmt"

// The analyzer registry: the single table the spd3vet driver, the -list
// output, and the golden-test harness all derive from, mirroring the
// detector registry in internal/detect. The built-in suite registers
// here; analyzers living in subpackages (checkelim) call Register from
// their own init, so importing the package is what adds the analyzer —
// cmd/spd3vet imports every analyzer package it ships.

var registry []*Analyzer

// Register adds a to the suite returned by All. It panics on a nil
// analyzer, an empty name, or a duplicate name — all programmer errors
// at init time.
func Register(a *Analyzer) {
	if a == nil || a.Name == "" {
		panic("analysis: Register of nil or unnamed analyzer")
	}
	for _, r := range registry {
		if r.Name == a.Name {
			panic(fmt.Sprintf("analysis: duplicate analyzer %q", a.Name))
		}
	}
	registry = append(registry, a)
}

// The built-in suite, in reporting order. Subpackage analyzers append
// after these in import-initialization order.
func init() {
	for _, a := range []*Analyzer{
		UncheckedAnalyzer,
		CtxEscapeAnalyzer,
		RawConcAnalyzer,
	} {
		Register(a)
	}
}

// All returns the default analyzer suite in registration order: every
// registered analyzer except the opt-in ones (use Lookup/ByName or
// Registered for those). The slice is freshly allocated; callers may
// filter it.
func All() []*Analyzer {
	out := make([]*Analyzer, 0, len(registry))
	for _, a := range registry {
		if !a.OptIn {
			out = append(out, a)
		}
	}
	return out
}

// Registered returns every registered analyzer, opt-in ones included,
// in registration order. The slice is freshly allocated.
func Registered() []*Analyzer {
	out := make([]*Analyzer, len(registry))
	copy(out, registry)
	return out
}

// Lookup returns the registered analyzer with the given name.
func Lookup(name string) (*Analyzer, bool) {
	for _, a := range registry {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// ByName resolves a list of analyzer names ("unchecked", "rawconc")
// against the registered suite.
func ByName(names []string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range names {
		a, ok := Lookup(n)
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}
