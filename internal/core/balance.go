package core

import (
	"vmgrid/internal/gis"
	"vmgrid/internal/placement"
	"vmgrid/internal/telemetry"
)

// BalancerConfig configures the grid's autonomic load balancer: the
// generic hysteresis knobs plus the placement policy used to rank
// migration targets.
type BalancerConfig struct {
	placement.BalancerConfig
	// Placer ranks migration-target candidates; nil keeps the
	// information service's ranking (first viable future). The same
	// shared candidate path serves session creation and supervisor
	// restores, so the viability filters cannot drift apart.
	Placer placement.Placer
}

// gridFabric adapts the grid to the balancer's world view. All reads
// flow through the observability surfaces a real deployment would have
// — the telemetry TSDB when enabled, the RPS forecast otherwise —
// rather than reaching into simulator internals the balancer could
// never see.
type gridFabric struct {
	g      *Grid
	placer placement.Placer
}

func (f *gridFabric) Nodes() []string { return f.g.computeNodes() }

// NodeLoad is the balancer's hotspot signal for one node: the
// telemetry pipeline's predicted-load series when the collector is
// scraping (the anticipatory signal Ablation I sweeps), then its raw
// load series, then the monitor's live forecast, then the host's load
// average — the best signal available in the current configuration.
func (f *gridFabric) NodeLoad(node string) (float64, bool) {
	n := f.g.nodes[node]
	if n == nil || n.crashed || n.gk == nil {
		return 0, false
	}
	if f.g.telemetry.Enabled() {
		db := f.g.telemetry.DB()
		for _, name := range [...]string{"node.predicted_load", "node.load"} {
			if s := db.Find(name, telemetry.L("node", node)); s != nil && s.Len() > 0 {
				return s.Last().V, true
			}
		}
	}
	if f.g.monitor != nil {
		if _, ok := f.g.monitor.sensors[node]; ok {
			return f.g.monitor.PredictedLoad(node), true
		}
	}
	return n.host.LoadAverage(), true
}

// Sessions lists the node's movable sessions in name order. Sessions
// mid-migration, mid-checkpoint, or mid-recovery are not offered: the
// balancer must never contend with the supervisor for the same
// incarnation.
func (f *gridFabric) Sessions(node string) []string {
	n := f.g.nodes[node]
	if n == nil {
		return nil
	}
	var names []string
	for _, s := range f.g.sessionsOn(n) {
		if s.state.CanMigrate() && s.cow != nil && !s.migrating && !f.g.sessionBusy(s.name) {
			names = append(names, s.name)
		}
	}
	return names
}

// Target picks where the session should land, through the grid's
// shared placement path: same candidate filters as session creation
// and supervisor restores (image present, free slot, bidirectional
// reachability from the source and the front end), ranked by the
// balancer's policy.
func (f *gridFabric) Target(sess, from string) (string, bool) {
	s := f.g.live[sess]
	if s == nil {
		return "", false
	}
	futures := f.g.info.FindFutures(gis.FutureQuery{
		MinMemBytes: s.cfg.MemBytes,
		Site:        s.cfg.Site,
	})
	cands := f.g.futureCandidates(futures, s.cfg.Image, from, from, s.cfg.FrontEnd)
	return placeWith(f.placer, placement.Request{
		Session:     sess,
		User:        s.cfg.User,
		Image:       s.cfg.Image,
		Site:        s.cfg.Site,
		MinMemBytes: s.cfg.MemBytes,
		Exclude:     from,
	}, cands)
}

// Migrate runs one fenced live migration on the balancer's behalf.
func (f *gridFabric) Migrate(sess, target string, done func(error)) error {
	s := f.g.live[sess]
	if s == nil {
		return ErrBadSession
	}
	f.g.telemetry.Record("balancer.migrations", 1,
		telemetry.L("session", sess), telemetry.L("target", target))
	f.g.tracer.Metrics().Counter("core.balancer-migrations").Inc()
	return s.MigrateFenced(target, done)
}

// StartBalancer starts the autonomic load-balancing loop: it watches
// per-node predicted load, detects sustained hotspots with hysteresis,
// and relieves them with fenced live migrations (so a balancer move
// can never race a partition failover — the epoch machinery arbitrates).
// Call Stop on the returned balancer to halt the loop.
func (g *Grid) StartBalancer(cfg BalancerConfig) (*placement.Balancer, error) {
	fab := &gridFabric{g: g, placer: cfg.Placer}
	b, err := placement.NewBalancer(g.k, fab, cfg.BalancerConfig)
	if err != nil {
		return nil, err
	}
	b.Start()
	return b, nil
}
