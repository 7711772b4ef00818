// Package placement decides where VM sessions run. It is the paper's
// resource-management loop (§3.2) turned into a subsystem: pluggable
// placement policies rank candidate compute nodes for every session
// create and every restore-target choice, and an autonomic balancer
// (balancer.go) watches per-node predicted load and drives live
// migrations off sustained hotspots.
//
// The package is deliberately mechanism-free: it ranks Candidates and
// detects hotspots, while the core package supplies the candidates
// (from the information service, filtered by image presence and
// bidirectional reachability) and executes the migrations. That split
// keeps one placement code path shared between the front end, the
// supervisor's failover, and the balancer.
package placement

import "fmt"

// Candidate is one compute node a session could run on, as seen at
// decision time.
type Candidate struct {
	// Node is the node name.
	Node string
	// Site is the node's administrative domain.
	Site string
	// Slots is the node's remaining free VM capacity (> 0).
	Slots int
	// Speed is the node's relative CPU speed.
	Speed float64
	// Load is the node's current load average (runnable tasks,
	// exponentially smoothed) — where load is.
	Load float64
	// Predicted is the RPS forecast of near-future load (falls back to
	// Load when no predictor runs) — where load is going.
	Predicted float64
}

// Request describes the session being placed.
type Request struct {
	// Session is the session name ("" before the name is assigned).
	Session string
	// User is the grid identity.
	User string
	// Image is the base image the node must serve.
	Image string
	// Site restricts the search ("" = any).
	Site string
	// MinMemBytes is the guest memory requirement.
	MinMemBytes int64
	// Exclude names a node the session must not land on (the migration
	// source). Core filters it out of the candidates; policies may
	// still consult it.
	Exclude string
}

// Placer ranks candidates and picks a node. Candidates arrive in the
// information service's ranking order (advertised load ascending,
// speed descending) and are pre-filtered: every one is alive, has a
// free slot, holds the image when required, and is reachable. Pick
// returns false when no candidate is acceptable.
type Placer interface {
	// Name is the policy's wire/CLI name.
	Name() string
	// Pick selects a node from the candidate list.
	Pick(req Request, cands []Candidate) (string, bool)
}

// LeastLoaded places where current load is lowest: live load average
// ascending, CPU speed descending, name ascending. This is the
// reactive policy — it chases load, it does not anticipate it.
type LeastLoaded struct{}

// Name implements Placer.
func (LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Placer.
func (LeastLoaded) Pick(_ Request, cands []Candidate) (string, bool) {
	return pickBy(cands, lessLeastLoaded)
}

func lessLeastLoaded(a, b Candidate) bool {
	if a.Load != b.Load {
		return a.Load < b.Load
	}
	if a.Speed != b.Speed {
		return a.Speed > b.Speed
	}
	return a.Node < b.Node
}

// PredictedLoad places where load is *going* to be lowest, consuming
// the RPS per-node forecasts: predicted load ascending, then current
// load, speed, name. With the monitor running this dodges nodes whose
// load is still ramping — the paper's argument for prediction-driven
// management.
type PredictedLoad struct{}

// Name implements Placer.
func (PredictedLoad) Name() string { return "predicted-load" }

// Pick implements Placer.
func (PredictedLoad) Pick(_ Request, cands []Candidate) (string, bool) {
	return pickBy(cands, lessPredicted)
}

func lessPredicted(a, b Candidate) bool {
	if a.Predicted != b.Predicted {
		return a.Predicted < b.Predicted
	}
	return lessLeastLoaded(a, b)
}

// Pack consolidates: it fills the node with the fewest free slots
// first (ties to the busier, then lexically first node), keeping the
// rest of the grid idle for hibernation or big arrivals. It is also
// the adversarial policy for the balancer ablation — packing
// concentrates load exactly where a skewed arrival burst hurts most.
type Pack struct{}

// Name implements Placer.
func (Pack) Name() string { return "pack" }

// Pick implements Placer.
func (Pack) Pick(_ Request, cands []Candidate) (string, bool) {
	return pickBy(cands, lessPack)
}

func lessPack(a, b Candidate) bool {
	if a.Slots != b.Slots {
		return a.Slots < b.Slots
	}
	if a.Load != b.Load {
		return a.Load > b.Load
	}
	return a.Node < b.Node
}

// pickBy returns the minimum candidate under less; ties resolve to the
// earlier candidate in information-service order.
func pickBy(cands []Candidate, less func(a, b Candidate) bool) (string, bool) {
	if len(cands) == 0 {
		return "", false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if less(c, best) {
			best = c
		}
	}
	return best.Node, true
}

// Names lists the built-in policy names in ByName's vocabulary.
func Names() []string { return []string{"least-loaded", "predicted-load", "pack"} }

// ByName resolves a policy by its wire/CLI name. The empty string
// resolves to nil — the caller's default (information-service ranking
// order, first fit).
func ByName(name string) (Placer, error) {
	switch name {
	case "":
		return nil, nil
	case "least-loaded":
		return LeastLoaded{}, nil
	case "predicted-load", "predicted":
		return PredictedLoad{}, nil
	case "pack":
		return Pack{}, nil
	}
	return nil, fmt.Errorf("placement: unknown policy %q (want least-loaded, predicted-load, or pack)", name)
}
