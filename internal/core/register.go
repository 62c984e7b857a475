package core

import "spd3/internal/detect"

// The SPD3 detectors self-register (database/sql style): the shipping
// configuration under its user-facing name, the §5.4 mutex protocol and
// the DMHP ablations as hidden variants reachable by the harness and
// cmd tools but absent from detect.Names.
func init() {
	detect.Register("spd3", factory(Options{Sync: SyncCAS}))
	detect.RegisterVariant("spd3-mutex", factory(Options{Sync: SyncMutex}))
	detect.RegisterVariant("spd3-walk", factory(Options{Sync: SyncCAS, NoFingerprint: true, NoDMHPMemo: true}))
	detect.RegisterVariant("spd3-fp", factory(Options{Sync: SyncCAS, NoDMHPMemo: true}))
}

func factory(o Options) detect.Factory {
	return func(fo detect.FactoryOpts) detect.Detector {
		o := o
		o.Stats = fo.Stats
		return NewWith(fo.Sink, o)
	}
}
