package core

import "spd3/internal/detect"

// SPD3 self-registers (database/sql style) under its user-facing name.
func init() {
	detect.Register("spd3", func(o detect.FactoryOpts) detect.Detector {
		return New(o.Sink, o.Stats)
	})
}
