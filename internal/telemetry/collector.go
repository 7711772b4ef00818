package telemetry

import (
	"fmt"

	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
)

const (
	// scrapeInterval is the scrape cadence when the collector
	// self-ticks via Start (the RPS sensor cadence).
	scrapeInterval = sim.Second
	// seriesHistory is the per-series ring capacity.
	seriesHistory = 512
)

// Source is one scrape callback: read fabric state, record samples.
// Sources must only read simulation state — the collector promises that
// scraping never perturbs what it observes.
type Source func(r *Recorder)

// Recorder is the write handle a Source receives: every sample it
// records is stamped with the scrape instant.
type Recorder struct {
	db *DB
	at sim.Time
}

// At returns the scrape instant.
func (r *Recorder) At() sim.Time { return r.at }

// Record appends one sample.
func (r *Recorder) Record(name string, v float64, labels ...Label) {
	r.db.Record(r.at, name, labels, v)
}

// Collector owns the pipeline: registered sources are scraped into the
// DB, then the rule engine evaluates. A nil Collector is the disabled
// state — every method is a nil-receiver no-op costing one pointer
// test.
//
// Scrapes run either manually (Scrape, for drivers that must keep the
// kernel's event queue drainable, like the wire server) or on a
// self-armed tick (Start, for experiments that bound the kernel with
// RunUntil horizons).
type Collector struct {
	k  *sim.Kernel
	db *DB
	// trace, when non-nil, receives alert firings as instant events on
	// an "alerts" track and counts them in its metrics registry, so
	// alerts land in the Chrome trace next to the spans they explain.
	trace *obs.Tracer

	sources []Source
	engine  *Engine

	running    bool
	next       sim.EventID
	scrapes    int
	lastScrape sim.Time
}

// NewCollector creates an enabled collector on the kernel's clock;
// trace may be nil.
func NewCollector(k *sim.Kernel, trace *obs.Tracer) *Collector {
	db, _ := NewDB(seriesHistory) // a positive history cannot fail
	c := &Collector{k: k, db: db, trace: trace, lastScrape: -1}
	c.engine = newEngine(c)
	return c
}

// Enabled reports whether the collector records anything.
func (c *Collector) Enabled() bool { return c != nil }

// DB returns the backing time-series store (nil on a nil collector).
func (c *Collector) DB() *DB {
	if c == nil {
		return nil
	}
	return c.db
}

// Scrapes returns how many scrape rounds have run.
func (c *Collector) Scrapes() int {
	if c == nil {
		return 0
	}
	return c.scrapes
}

// AddSource registers a scrape callback. Sources run in registration
// order on every scrape — registration order is part of the
// deterministic contract, so register sources in a fixed order.
func (c *Collector) AddSource(fn Source) {
	if c == nil || fn == nil {
		return
	}
	c.sources = append(c.sources, fn)
}

// Observe records one unlabeled sample at the current sim time — the
// inline instrumentation hot path. On a nil collector this is a single
// pointer test.
func (c *Collector) Observe(name string, v float64) {
	if c == nil {
		return
	}
	c.db.Record(c.k.Now(), name, nil, v)
}

// Record is Observe with labels.
func (c *Collector) Record(name string, v float64, labels ...Label) {
	if c == nil {
		return
	}
	c.db.Record(c.k.Now(), name, labels, v)
}

// Scrape runs one collection round at the current instant: sources in
// registration order, then rule evaluation.
// A second Scrape at the same instant is a no-op, so drivers may call
// it after every operation without stacking duplicate samples.
func (c *Collector) Scrape() {
	if c == nil {
		return
	}
	now := c.k.Now()
	if c.scrapes > 0 && now == c.lastScrape {
		return
	}
	c.scrapes++
	c.lastScrape = now
	r := &Recorder{db: c.db, at: now}
	for _, src := range c.sources {
		src(r)
	}
	c.engine.eval(now)
}

// Start arms the self-ticking scrape loop (first scrape immediately).
// Self-ticking keeps the kernel's event queue non-empty forever, so it
// suits drivers that bound the simulation with RunUntil horizons; use
// manual Scrape where ErrStalled doubles as an idle detector.
func (c *Collector) Start() {
	if c == nil || c.running {
		return
	}
	c.running = true
	c.tick()
}

// Stop halts the self-ticking loop.
func (c *Collector) Stop() {
	if c == nil || !c.running {
		return
	}
	c.running = false
	c.k.Cancel(c.next)
	c.next = sim.EventID{}
}

func (c *Collector) tick() {
	if !c.running {
		return
	}
	c.Scrape()
	c.next = c.k.After(scrapeInterval, c.tick)
}

// AddRule parses and registers an alert rule (see the package grammar
// in rules.go). Rules evaluate after every scrape in registration
// order.
func (c *Collector) AddRule(name, expr string) error {
	if c == nil {
		return fmt.Errorf("telemetry: add rule %q on nil collector", name)
	}
	return c.engine.addRule(name, expr)
}

// Rules returns the registered rules in registration order.
func (c *Collector) Rules() []RuleInfo {
	if c == nil {
		return nil
	}
	return c.engine.rulesInfo()
}

// Firings returns every alert firing so far (resolved and active) in
// firing order.
func (c *Collector) Firings() []Firing {
	if c == nil {
		return nil
	}
	return append([]Firing(nil), c.engine.firings...)
}

// Active returns the currently-firing alerts in firing order.
func (c *Collector) Active() []Firing {
	if c == nil {
		return nil
	}
	var out []Firing
	for _, f := range c.engine.firings {
		if f.ResolvedAt < 0 {
			out = append(out, f)
		}
	}
	return out
}

// OnFire registers a hook invoked when an alert starts firing — the
// bridge to GIS soft state. Hooks run inside the scrape, in
// registration order.
func (c *Collector) OnFire(fn func(Firing)) {
	if c == nil || fn == nil {
		return
	}
	c.engine.onFire = append(c.engine.onFire, fn)
}

// OnResolve registers a hook invoked when a firing alert clears.
func (c *Collector) OnResolve(fn func(Firing)) {
	if c == nil || fn == nil {
		return
	}
	c.engine.onResolve = append(c.engine.onResolve, fn)
}
