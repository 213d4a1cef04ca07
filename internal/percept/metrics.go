package percept

import "nvrel/internal/obs"

// metReplications counts completed replications. Updates are no-ops while
// obs is disabled (the default).
var metReplications = obs.CounterFor("percept.replications")
