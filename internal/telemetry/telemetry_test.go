package telemetry

import (
	"bytes"
	"testing"

	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
)

func TestCanonicalKey(t *testing.T) {
	if got := string(appendKey(nil, "node.load", nil)); got != "node.load" {
		t.Fatalf("bare key = %q", got)
	}
	got := string(appendKey(nil, "node.load", []Label{L("node", "c1"), L("zone", "a")}))
	if got != "node.load{node=c1,zone=a}" {
		t.Fatalf("labeled key = %q", got)
	}
}

func TestSeriesRingEviction(t *testing.T) {
	db, err := NewDB(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		db.Record(sim.Time(i), "x", nil, float64(i))
	}
	s := db.Lookup("x")
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	pts := s.Points()
	for i, p := range pts {
		want := float64(6 + i)
		if p.V != want || p.At != sim.Time(6+i) {
			t.Fatalf("point %d = %+v, want {%d %g}", i, p, 6+i, want)
		}
	}
	if last := s.Last(); last.V != 9 {
		t.Fatalf("Last = %+v", last)
	}
}

func TestWindowAggregates(t *testing.T) {
	db, _ := NewDB(128)
	for i := 1; i <= 100; i++ {
		db.Record(sim.Time(i)*sim.Time(sim.Second), "v", nil, float64(i))
	}
	s := db.Lookup("v")

	a := s.Window(0)
	if a.Count != 100 || a.Min != 1 || a.Max != 100 || a.Last != 100 {
		t.Fatalf("full window = %+v", a)
	}
	if a.Mean != 50.5 {
		t.Fatalf("mean = %g", a.Mean)
	}
	if a.P99 != 99 { // nearest-rank ceil(0.99*100) = 99th value
		t.Fatalf("p99 = %g", a.P99)
	}

	// Sliding window: last 10 samples only.
	a = s.Window(sim.Time(91) * sim.Time(sim.Second))
	if a.Count != 10 || a.Min != 91 || a.Max != 100 {
		t.Fatalf("sliding window = %+v", a)
	}

	// Empty window.
	if a := s.Window(sim.Time(1000) * sim.Time(sim.Second)); a.Count != 0 {
		t.Fatalf("empty window = %+v", a)
	}
}

func TestRate(t *testing.T) {
	db, _ := NewDB(16)
	// Counter rising 5/s for 4 seconds.
	for i := 0; i <= 4; i++ {
		db.Record(sim.Time(i)*sim.Time(sim.Second), "c", nil, float64(5*i))
	}
	s := db.Lookup("c")
	if r := s.Rate(0); r != 5 {
		t.Fatalf("rate = %g, want 5", r)
	}
	// Single sample: no rate.
	db.Record(0, "one", nil, 1)
	if r := db.Lookup("one").Rate(0); r != 0 {
		t.Fatalf("single-sample rate = %g", r)
	}
}

func TestSelectSubsetMatch(t *testing.T) {
	db, _ := NewDB(8)
	db.Record(0, "load", []Label{L("node", "c1")}, 1)
	db.Record(0, "load", []Label{L("node", "c2")}, 2)
	db.Record(0, "load", []Label{L("node", "c1"), L("zone", "a")}, 3)
	db.Record(0, "other", nil, 4)

	all := db.Select("load", nil)
	if len(all) != 3 {
		t.Fatalf("Select all = %d series", len(all))
	}
	// Key order: ',' sorts before '}', so the two-label series leads.
	if all[0].Key() != "load{node=c1,zone=a}" || all[1].Key() != "load{node=c1}" || all[2].Key() != "load{node=c2}" {
		t.Fatalf("key order: %q, %q, %q", all[0].Key(), all[1].Key(), all[2].Key())
	}
	c1 := db.Select("load", []Label{L("node", "c1")})
	if len(c1) != 2 {
		t.Fatalf("Select node=c1 = %d series", len(c1))
	}
}

func TestLabelOrderInsensitive(t *testing.T) {
	db, _ := NewDB(8)
	db.Record(0, "x", []Label{L("b", "2"), L("a", "1")}, 1)
	db.Record(1, "x", []Label{L("a", "1"), L("b", "2")}, 2)
	if db.Len() != 1 {
		t.Fatalf("label order created %d series, want 1", db.Len())
	}
	if s := db.Lookup("x{a=1,b=2}"); s == nil || s.Len() != 2 {
		t.Fatalf("canonical lookup failed: %+v", s)
	}
}

func newTestCollector(t *testing.T, k *sim.Kernel, cfg Config) *Collector {
	t.Helper()
	c, err := NewCollector(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCollectorScrapeIdempotentPerInstant(t *testing.T) {
	k := sim.NewKernel(1)
	c := newTestCollector(t, k, Config{})
	calls := 0
	c.AddSource(func(r *Recorder) {
		calls++
		r.Record("s", float64(calls))
	})
	c.Scrape()
	c.Scrape() // same instant: no-op
	if calls != 1 || c.Scrapes() != 1 {
		t.Fatalf("calls = %d, scrapes = %d", calls, c.Scrapes())
	}
	k.After(sim.Second, func() { c.Scrape() })
	if err := k.RunUntil(sim.Time(0).Add(2 * sim.Second)); err != nil && err != sim.ErrStalled {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("calls after advance = %d", calls)
	}
}

func TestCollectorSelfTick(t *testing.T) {
	k := sim.NewKernel(1)
	c := newTestCollector(t, k, Config{Interval: sim.Second})
	v := 0.0
	c.AddSource(func(r *Recorder) { v++; r.Record("tick", v) })
	c.Start()
	if err := k.RunUntil(sim.Time(0).Add(5*sim.Second + sim.Millisecond)); err != nil && err != sim.ErrStalled {
		t.Fatal(err)
	}
	c.Stop()
	s := c.DB().Lookup("tick")
	if s == nil || s.Len() != 6 { // t=0,1,2,3,4,5
		t.Fatalf("ticks = %v", s)
	}
	// Stopped: no further events.
	if err := k.RunUntil(sim.Time(0).Add(10 * sim.Second)); err != sim.ErrStalled {
		t.Fatalf("RunUntil after Stop = %v, want ErrStalled", err)
	}
}

func TestAttachRegistry(t *testing.T) {
	k := sim.NewKernel(1)
	tr := obs.New(k)
	reg := tr.Metrics()
	reg.Counter("ops").Add(7)
	reg.Gauge("depth").Set(3)
	reg.Histogram("lat").Observe(2 * sim.Millisecond)

	c := newTestCollector(t, k, Config{})
	c.AttachRegistry("grid", reg)
	c.Scrape()

	if s := c.DB().Lookup("ops{src=grid}"); s == nil || s.Last().V != 7 {
		t.Fatalf("counter series: %+v", s)
	}
	if s := c.DB().Lookup("depth{src=grid}"); s == nil || s.Last().V != 3 {
		t.Fatalf("gauge series: %+v", s)
	}
	if s := c.DB().Lookup("lat.count{src=grid}"); s == nil || s.Last().V != 1 {
		t.Fatalf("hist count series: %+v", s)
	}
	if s := c.DB().Lookup("lat.mean_sec{src=grid}"); s == nil || s.Last().V != 0.002 {
		t.Fatalf("hist mean series: %+v", s)
	}
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector enabled")
	}
	c.Observe("x", 1)
	c.Record("x", 1, L("a", "b"))
	c.Scrape()
	c.Start()
	c.Stop()
	c.AddSource(func(*Recorder) {})
	c.AttachRegistry("g", obs.NewRegistry())
	c.OnFire(func(Firing) {})
	c.OnResolve(func(Firing) {})
	if c.DB() != nil || c.Scrapes() != 0 || c.Rules() != nil || c.Firings() != nil || c.Active() != nil {
		t.Fatal("nil collector leaked state")
	}
	if err := c.AddRule("r", "x > 1"); err == nil {
		t.Fatal("AddRule on nil collector should error")
	}
}

// BenchmarkNilObserve is the disabled-cost acceptance gate: one pointer
// test, ~1-2 ns/op, 0 allocs.
func BenchmarkNilObserve(b *testing.B) {
	var c *Collector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Observe("session.slowdown", 1.05)
	}
}

func BenchmarkEnabledObserve(b *testing.B) {
	k := sim.NewKernel(1)
	c, err := NewCollector(k, Config{History: 256})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Observe("session.slowdown", 1.05)
	}
}

func TestRuleParsing(t *testing.T) {
	good := []string{
		"mean(session.slowdown, 30s) > 1.10 for 30s",
		"last(lease.age) > 4",
		"rate(vfs.retries, 10s) > 5",
		"p99(rpc.lat{node=c1}, 500ms) >= 0.25",
		"min(x) < -1 for 1.5s",
		"node.load{node=c1,zone=a} <= 0.9",
		"max(q, 2m) > 10 for 1h",
	}
	for _, expr := range good {
		if _, err := parseRule(expr); err != nil {
			t.Errorf("parseRule(%q) = %v", expr, err)
		}
	}
	bad := []string{
		"",
		"median(x) > 1",        // unknown func
		"mean(x, 30s > 1",      // missing ')'
		"x >",                  // missing number
		"x > 1 for",            // missing duration
		"x > 1 for 30d",        // bad unit
		"x > 1 banana",         // trailing garbage
		"mean(x{a=}) > 1",      // empty label value is fine? -> value "" parses; keep out
		"> 1",                  // no selector
		"x = 1",                // bad cmp
		"x > 1 for 30s extra",  // trailing after for
		"mean(x{a 1, b=2}) >1", // malformed labels
	}
	for _, expr := range bad {
		if expr == "mean(x{a=}) > 1" {
			continue // empty label value is tolerated by the grammar
		}
		if _, err := parseRule(expr); err == nil {
			t.Errorf("parseRule(%q) succeeded, want error", expr)
		}
	}
}

func TestRuleFiringLifecycle(t *testing.T) {
	k := sim.NewKernel(1)
	tr := obs.New(k)
	c := newTestCollector(t, k, Config{Trace: tr})
	load := 0.0
	c.AddSource(func(r *Recorder) { r.Record("load", load, L("node", "c1")) })
	if err := c.AddRule("hot", "last(load) > 0.9 for 2s"); err != nil {
		t.Fatal(err)
	}
	var fired, resolved []Firing
	c.OnFire(func(f Firing) { fired = append(fired, f) })
	c.OnResolve(func(f Firing) { resolved = append(resolved, f) })

	step := func(sec int, v float64) {
		k.After(sim.Duration(sec)*sim.Second, func() {
			load = v
			c.Scrape()
		})
	}
	// t=0: below. t=1,2,3: above (pending at 1, fires at 3: 2s elapsed).
	// t=4: below (resolves). t=5: above again (pending). t=6: still above
	// but only 1s pending — not firing yet.
	step(0, 0.5)
	step(1, 1.0)
	step(2, 1.0)
	step(3, 1.0)
	step(4, 0.2)
	step(5, 1.0)
	step(6, 1.0)
	if err := k.RunUntil(sim.Time(0).Add(7 * sim.Second)); err != nil && err != sim.ErrStalled {
		t.Fatal(err)
	}

	if len(fired) != 1 {
		t.Fatalf("fired = %+v", fired)
	}
	f := fired[0]
	if f.Rule != "hot" || f.Series != "load{node=c1}" || f.At != sim.Time(0).Add(3*sim.Second) || f.Value != 1.0 {
		t.Fatalf("firing = %+v", f)
	}
	if len(resolved) != 1 || resolved[0].ResolvedAt != sim.Time(0).Add(4*sim.Second) {
		t.Fatalf("resolved = %+v", resolved)
	}
	all := c.Firings()
	if len(all) != 1 || all[0].ResolvedAt < 0 {
		t.Fatalf("Firings = %+v", all)
	}
	if len(c.Active()) != 0 {
		t.Fatalf("Active = %+v", c.Active())
	}
	// Trace got fire + resolve instants and counters.
	snap := tr.Metrics().Snapshot()
	counts := map[string]float64{}
	for _, p := range snap.Counters {
		counts[p.Name] = p.Value
	}
	if counts["telemetry.alerts.fired"] != 1 || counts["telemetry.alerts.resolved"] != 1 {
		t.Fatalf("alert counters = %v", counts)
	}
}

func TestRulePerSeriesStateMachines(t *testing.T) {
	k := sim.NewKernel(1)
	c := newTestCollector(t, k, Config{})
	c.AddSource(func(r *Recorder) {
		r.Record("age", 5, L("sess", "a")) // always over
		r.Record("age", 1, L("sess", "b")) // always under
	})
	if err := c.AddRule("stale", "last(age) > 4"); err != nil {
		t.Fatal(err)
	}
	c.Scrape()
	act := c.Active()
	if len(act) != 1 || act[0].Series != "age{sess=a}" {
		t.Fatalf("Active = %+v", act)
	}
	// Already firing: no duplicate on next scrape.
	k.After(sim.Second, c.Scrape)
	if err := k.RunUntil(sim.Time(0).Add(2 * sim.Second)); err != nil && err != sim.ErrStalled {
		t.Fatal(err)
	}
	if len(c.Firings()) != 1 {
		t.Fatalf("Firings = %+v", c.Firings())
	}
}

func TestRuleRateAndWindowFuncs(t *testing.T) {
	k := sim.NewKernel(1)
	c := newTestCollector(t, k, Config{})
	n := 0.0
	c.AddSource(func(r *Recorder) {
		n += 10 // 10/s counter growth
		r.Record("retries", n)
	})
	if err := c.AddRule("storm", "rate(retries, 10s) > 5"); err != nil {
		t.Fatal(err)
	}
	c.Start()
	if err := k.RunUntil(sim.Time(0).Add(5 * sim.Second)); err != nil && err != sim.ErrStalled {
		t.Fatal(err)
	}
	c.Stop()
	if len(c.Active()) != 1 {
		t.Fatalf("rate rule did not fire: %+v", c.Firings())
	}
}

func TestDuplicateRuleRejected(t *testing.T) {
	k := sim.NewKernel(1)
	c := newTestCollector(t, k, Config{})
	if err := c.AddRule("r", "x > 1"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRule("r", "y > 2"); err == nil {
		t.Fatal("duplicate rule accepted")
	}
	if err := c.AddRule("", "x > 1"); err == nil {
		t.Fatal("unnamed rule accepted")
	}
	if err := c.AddRule("bad", "x >"); err == nil {
		t.Fatal("malformed rule accepted")
	}
	info := c.Rules()
	if len(info) != 1 || info[0].Name != "r" || info[0].Expr != "x > 1" {
		t.Fatalf("Rules = %+v", info)
	}
}

func TestSetWriteJSONDeterministic(t *testing.T) {
	build := func() *Set {
		k := sim.NewKernel(1)
		c, _ := NewCollector(k, Config{})
		c.AddSource(func(r *Recorder) {
			r.Record("load", 0.5+r.At().Seconds(), L("node", "c1"))
			r.Record("load", 0.1, L("node", "c2"))
		})
		c.AddRule("hot", "last(load) > 1")
		c.Start()
		if err := k.RunUntil(sim.Time(0).Add(3 * sim.Second)); err != nil && err != sim.ErrStalled {
			t.Fatal(err)
		}
		ts := NewSet()
		ts.Add("sample-0", c)
		return ts
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("non-deterministic export:\n%s\nvs\n%s", a.String(), b.String())
	}
	for _, want := range []string{`"label":"sample-0"`, `"key":"load{node=c1}"`, `"rule":"hot"`, `"resolvedUs":-1`} {
		if !bytes.Contains(a.Bytes(), []byte(want)) {
			t.Fatalf("export missing %q:\n%s", want, a.String())
		}
	}
}
