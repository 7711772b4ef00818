package core

// Tracing glue: the grid owns at most one obs.Tracer, built by NewGrid
// (WithTracing or WithFlightRecorder) and shared by every layer it
// builds (sessions, VFS mounts, GRAM clients and gatekeepers, VMMs, the
// supervisor). Tracing is off by default — the nil tracer's no-op fast
// path keeps instrumented code free.

import "vmgrid/internal/obs"

// Tracer returns the grid's tracer (nil when tracing is off; the nil
// value is safe to use).
func (g *Grid) Tracer() *obs.Tracer { return g.tracer }

// startupPhases names the Figure 3 phase that ends at each milestone
// mark. The five phases partition submitted→ready exactly — no gaps, no
// overlap — so their per-session durations sum to the startup
// wall-clock Table 2 reports.
var startupPhases = map[string]string{
	"future-selected": "query-future", // step 1: information-service query
	"image-located":   "locate-image", // step 2: image-server query
	"vm-starting":     "stage",        // step 3: data session / staging
	"vm-running":      "instantiate",  // step 4: VM boot or restore
	"ready":           "connect",      // step 5: network identity + data
}
