package detectors_test

import (
	"testing"

	"spd3/internal/detect"
)

// TestNameIsRegistryName: every registry detector reports itself under
// the name it is built by, so a run's printout and a verdict name the
// detector the user selected.
func TestNameIsRegistryName(t *testing.T) {
	for _, name := range detect.Names() {
		det, err := detect.New(name, detect.FactoryOpts{Sink: detect.NewSink(false, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if got := det.Name(); got != name {
			t.Errorf("detector %q: Name() = %q", name, got)
		}
	}
}
