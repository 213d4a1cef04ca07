package des

import "nvrel/internal/obs"

// Metric handles for the event simulator. All updates are no-ops while obs
// is disabled (the default).
var (
	// Events fired (canceled events leave the heap without firing).
	metEvents = obs.CounterFor("des.events")
)
