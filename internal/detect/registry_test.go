package detect

import (
	"sync"
	"testing"
)

// seqStub is a registrable detector stub with a configurable
// DepthFirst answer.
type seqStub struct {
	Nop
	seq bool
}

func (s seqStub) RequiresSequential() bool { return s.seq }

// The registry is process-global and refuses a second registration of a
// name, so the stubs register once however often -count reruns the test.
var (
	registerStubs sync.Once
	seqStubBuilt  int // DepthFirst is asked once, at registration
)

func TestDescribe(t *testing.T) {
	registerStubs.Do(func() {
		Register("registry-test-seq", func(FactoryOpts) Detector { seqStubBuilt++; return seqStub{seq: true} })
		Register("registry-test-par", func(FactoryOpts) Detector { return seqStub{} })
		RegisterVariant("registry-test-hidden", func(FactoryOpts) Detector { return seqStub{} })
	})

	got := map[string]Description{}
	prev := ""
	for _, d := range Describe() {
		if d.Name <= prev {
			t.Fatalf("Describe not sorted: %q after %q", d.Name, prev)
		}
		prev = d.Name
		got[d.Name] = d
	}
	if d, ok := got["registry-test-seq"]; !ok || !d.Sequential {
		t.Errorf("registry-test-seq: got %+v, want listed with Sequential=true", d)
	}
	if d, ok := got["registry-test-par"]; !ok || d.Sequential {
		t.Errorf("registry-test-par: got %+v, want listed with Sequential=false", d)
	}
	if _, ok := got["registry-test-hidden"]; ok {
		t.Error("hidden variant leaked into Describe")
	}
	if d, ok := got["none"]; !ok || d.Sequential {
		t.Errorf("none: got %+v, want listed with Sequential=false", d)
	}
	if !Sequential("registry-test-seq") || Sequential("registry-test-hidden") || Sequential("registry-test-unknown") {
		t.Error("Sequential: want true for registry-test-seq only")
	}
	if seqStubBuilt != 1 {
		t.Errorf("factory ran %d times across Register, Describe and Sequential, want 1", seqStubBuilt)
	}
}
