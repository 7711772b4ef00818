package core

import (
	"fmt"
	"sort"

	"vmgrid/internal/gis"
	"vmgrid/internal/telemetry"
)

// attachTelemetry builds the grid's collector (WithTelemetry): every
// scrape records per-node gauges (runnable processes, load average,
// free slots, crash state, and — once StartMonitor runs — the RPS
// predicted load), per-session gauges (VM slowdown, VFS cache hit
// rate, retry and transport-error counters), supervisor lease ages,
// GIS replication health, and chunk-plane dedup counters. Alert
// firings are mirrored into GIS soft state as KindAlert entries so
// middleware discovers SLO violations the way it discovers hosts.
// Scraping only reads fabric state, so telemetry never changes
// simulation outcomes.
func (g *Grid) attachTelemetry() {
	col := telemetry.NewCollector(g.k, g.tracer)
	g.telemetry = col

	col.AddSource(g.scrapeNodes)
	col.AddSource(g.scrapeSessions)
	col.AddSource(g.scrapeLeases)
	col.AddSource(g.scrapeGIS)
	col.AddSource(g.scrapeStaging)

	// Mirror firings into the information service: alerts are soft state
	// like everything else in the GIS, keyed rule/series.
	col.OnFire(func(f telemetry.Firing) {
		_ = g.info.Register(gis.KindAlert, f.Rule+"/"+f.Series, map[string]any{
			"rule":   f.Rule,
			"series": f.Series,
			"value":  f.Value,
		}, 0)
		// An SLO alert is an incident trigger: freeze the flight
		// recorder's recent past as a bundle (no-op without a recorder).
		g.incidentNow("alert:"+f.Rule, f.Series)
	})
	col.OnResolve(func(f telemetry.Firing) {
		g.info.Deregister(gis.KindAlert, f.Rule+"/"+f.Series)
	})
}

// Telemetry returns the grid's collector (nil without WithTelemetry —
// and a nil collector is itself safe to use).
func (g *Grid) Telemetry() *telemetry.Collector { return g.telemetry }

// DefaultAlertRules installs the standard SLO rules:
//
//   - slowdown: mean VM slowdown over 30 s exceeds Figure 1's ≤10%
//     virtualization budget for 30 s.
//   - stale-lease: a session's lease has not been renewed for more than
//     two supervisor heartbeats — the telemetry-side shadow of the
//     supervisor's lease-expiry failure detector (which waits for the
//     three-heartbeat lease TTL).
//   - vfs-retry-storm: the per-session VFS retry counter grows faster
//     than 5/s over 10 s — a flapping link or dying server.
//   - split-brain-risk: minority-side registry writes are being
//     rejected — some node is partitioned from the GIS quorum and its
//     sessions are failover candidates. (The series only exists on
//     replicated grids, so the rule is inert otherwise.)
func (g *Grid) DefaultAlertRules() error {
	col := g.telemetry
	if col == nil {
		return fmt.Errorf("core: default alert rules without telemetry")
	}
	rules := []struct{ name, expr string }{
		{"slowdown", "mean(session.slowdown, 30s) > 1.10 for 30s"},
		{"stale-lease", fmt.Sprintf("last(lease.age) > %g", (2 * heartbeatInterval).Seconds())},
		{"vfs-retry-storm", "rate(vfs.retries, 10s) > 5"},
		{"split-brain-risk", "rate(gis.minority_writes, 10s) > 0"},
	}
	for _, r := range rules {
		if err := col.AddRule(r.name, r.expr); err != nil {
			return err
		}
	}
	return nil
}

// NodeNames returns every node name, sorted — the deterministic scrape
// and display order.
func (g *Grid) NodeNames() []string {
	names := make([]string, 0, len(g.nodes))
	for name := range g.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Session returns the live session named name, or nil when no live
// session has that name (never created, still starting, or shut down).
func (g *Grid) Session(name string) *Session { return g.live[name] }

// LiveSessions returns the live sessions in name order.
func (g *Grid) LiveSessions() []*Session {
	out := make([]*Session, 0, len(g.live))
	for _, s := range g.live {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (g *Grid) scrapeNodes(r *telemetry.Recorder) {
	for _, name := range g.NodeNames() {
		n := g.nodes[name]
		lbl := telemetry.L("node", name)
		crashed := 0.0
		if n.crashed {
			crashed = 1
		}
		r.Record("node.crashed", crashed, lbl)
		if n.crashed {
			continue
		}
		r.Record("node.runnable", float64(n.host.Runnable()), lbl)
		r.Record("node.load", n.host.LoadAverage(), lbl)
		r.Record("node.slots", float64(n.slots), lbl)
		if g.monitor != nil {
			if _, ok := g.monitor.sensors[name]; ok {
				r.Record("node.predicted_load", g.monitor.PredictedLoad(name), lbl)
			}
		}
	}
}

func (g *Grid) scrapeSessions(r *telemetry.Recorder) {
	for _, s := range g.LiveSessions() {
		lbl := telemetry.L("sess", s.name)
		u := s.Usage()
		if u.GuestUserSeconds > 0 {
			r.Record("session.slowdown", u.CPUSeconds/u.GuestUserSeconds, lbl)
		}
		v := s.VFSTotals()
		if rate, ok := v.HitRate(); ok {
			r.Record("vfs.hit_rate", rate, lbl)
		}
		r.Record("vfs.retries", float64(v.Retries), lbl)
		r.Record("vfs.transport_errors", float64(v.TransportErrors), lbl)
	}
}

func (g *Grid) scrapeLeases(r *telemetry.Recorder) {
	for _, sup := range g.supervisors {
		names := make([]string, 0, len(sup.charges))
		for name := range sup.charges {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c := sup.charges[name]
			if c.lastRenew < 0 {
				continue
			}
			r.Record("lease.age", r.At().Sub(c.lastRenew).Seconds(), telemetry.L("sess", name))
			r.Record("session.epoch", float64(c.epoch), telemetry.L("sess", name))
		}
	}
}

// scrapeStaging records the chunked-transfer plane's grid-wide dedup
// counters when chunked staging is enabled: cache hits and misses (in
// chunks) and the payload bytes those hits kept off the wire. The
// series are cumulative counters, so rate() works on them.
func (g *Grid) scrapeStaging(r *telemetry.Recorder) {
	if g.chunks == nil {
		return
	}
	st := g.chunks.Stats()
	r.Record("staging.chunk.hits", float64(st.Hits))
	r.Record("staging.chunk.misses", float64(st.Misses))
	r.Record("staging.bytes_saved", float64(st.BytesSaved))
}

// scrapeGIS records replication health when the registry is clustered:
// per-replica staleness relative to the newest write anywhere
// (gis.replica.lag) and the running count of quorum-rejected writes
// (gis.minority_writes) that the split-brain-risk rule watches.
func (g *Grid) scrapeGIS(r *telemetry.Recorder) {
	cl := g.info.Cluster()
	if cl == nil {
		return
	}
	for i := 0; i < cl.Size(); i++ {
		r.Record("gis.replica.lag", cl.Lag(i).Seconds(), telemetry.L("replica", cl.Node(i)))
	}
	r.Record("gis.minority_writes", float64(cl.MinorityWrites()))
}
