package core

// Flight-recorder glue: the grid owns at most one obs.FlightRecorder
// (WithFlightRecorder), fed by the grid tracer. Incident triggers live
// at the core layer — supervisor recoveries, zombie fencing, SLO alerts
// — so the helpers here are what the rest of the package calls; every
// one is a cheap no-op when no recorder is enabled.

import "vmgrid/internal/obs"

// Recorder returns the grid's flight recorder (nil when disabled; the
// nil value is safe to use).
func (g *Grid) Recorder() *obs.FlightRecorder { return g.recorder }

// incidentNow freezes an immediately-sealed incident bundle.
func (g *Grid) incidentNow(trigger, subject string) { g.recorder.FreezeNow(trigger, subject) }

// incidentOpen starts an incident rooted at a live span; the bundle
// captures the root's trace as it unfolds and seals — postmortem
// included — when the root span ends.
func (g *Grid) incidentOpen(trigger, subject string, root obs.SpanContext) {
	g.recorder.Open(trigger, subject, root)
}
