// Package detectors links every detector implementation into the binary
// so their init-time detect.Register calls populate the registry. Import
// it for side effects wherever detectors are constructed by name:
//
//	import _ "spd3/internal/detectors"
//
// The root spd3 package imports it, so library users get the full set;
// a build that wants a subset can import the algorithm packages
// directly instead.
package detectors

import (
	_ "spd3/internal/core"
	_ "spd3/internal/eraser"
	_ "spd3/internal/espbags"
	_ "spd3/internal/fasttrack"
)
