package telemetry

import (
	"fmt"
	"testing"

	"vmgrid/internal/sim"
)

// TestRecordExistingSeriesZeroAllocs: the scrape hot path — recording a
// sample to an already-interned series — allocates nothing, for both
// the unlabeled and the labeled (canonical-key scratch render + zero-copy
// lookup) paths.
func TestRecordExistingSeriesZeroAllocs(t *testing.T) {
	db, err := NewDB(64)
	if err != nil {
		t.Fatal(err)
	}
	labels := []Label{L("node", "c1"), L("session", "s9")}
	db.Record(0, "node.load", nil, 1)
	db.Record(0, "node.load", labels, 1)

	at := sim.Time(1)
	unlabeled := testing.AllocsPerRun(200, func() {
		db.Record(at, "node.load", nil, 2.5)
		at++
	})
	if unlabeled != 0 {
		t.Errorf("unlabeled Record allocates %.1f objects/op, want 0", unlabeled)
	}
	labeled := testing.AllocsPerRun(200, func() {
		db.Record(at, "node.load", labels, 2.5)
		at++
	})
	if labeled != 0 {
		t.Errorf("labeled Record on an existing series allocates %.1f objects/op, want 0", labeled)
	}
	if db.Len() != 2 {
		t.Fatalf("series count = %d, want 2 (no accidental re-interning)", db.Len())
	}
}

// TestRecordUnsortedLabelsStillCanonical: the zero-alloc fast path must
// not change keying — unsorted label sets land in the same series as
// their sorted spelling.
func TestRecordUnsortedLabelsStillCanonical(t *testing.T) {
	db, err := NewDB(8)
	if err != nil {
		t.Fatal(err)
	}
	db.Record(0, "m", []Label{L("b", "2"), L("a", "1")}, 1)
	db.Record(1, "m", []Label{L("a", "1"), L("b", "2")}, 2)
	if db.Len() != 1 {
		t.Fatalf("series count = %d, want 1", db.Len())
	}
	s := db.Lookup("m{a=1,b=2}")
	if s == nil {
		t.Fatal("canonical key not found")
	}
	if s.Len() != 2 {
		t.Errorf("samples = %d, want 2", s.Len())
	}
}

// BenchmarkTelemetryObserve measures the labeled observe path on an
// existing series: sort check, scratch key render, zero-copy lookup,
// ring append.
func BenchmarkTelemetryObserve(b *testing.B) {
	db, err := NewDB(512)
	if err != nil {
		b.Fatal(err)
	}
	labels := []Label{L("node", "c1"), L("session", "s9")}
	db.Record(0, "node.load", labels, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Record(sim.Time(i), "node.load", labels, float64(i))
	}
}

// BenchmarkTelemetryEval measures one rule-engine pass: the grid's four
// default alert rules (as core.DefaultAlertRules installs them with the
// 2 s heartbeat) over ~200 series with full 512-sample histories, the
// per-scrape cost of a telemetry-enabled grid.
func BenchmarkTelemetryEval(b *testing.B) {
	k := sim.NewKernel(1)
	c := NewCollector(k, nil)
	for _, r := range []struct{ name, expr string }{
		{"slowdown", "mean(session.slowdown, 30s) > 1.10 for 30s"},
		{"stale-lease", "last(lease.age) > 4"},
		{"vfs-retry-storm", "rate(vfs.retries, 10s) > 5"},
		{"split-brain-risk", "rate(gis.minority_writes, 10s) > 0"},
	} {
		if err := c.AddRule(r.name, r.expr); err != nil {
			b.Fatal(err)
		}
	}
	var now sim.Time
	for i := 0; i < 512; i++ {
		now = sim.Time(i) * sim.Time(sim.Second)
		for s := 0; s < 40; s++ {
			lbl := []Label{L("sess", fmt.Sprint("s", s))}
			c.db.Record(now, "session.slowdown", lbl, 1+float64((i+s)%7)/100)
			c.db.Record(now, "lease.age", lbl, float64(i%2))
			c.db.Record(now, "vfs.retries", lbl, float64(i/64))
			c.db.Record(now, "session.epoch", lbl, 1)
		}
		for n := 0; n < 8; n++ {
			lbl := []Label{L("node", fmt.Sprint("c", n))}
			c.db.Record(now, "node.load", lbl, float64(n))
			c.db.Record(now, "node.runnable", lbl, float64(n))
			c.db.Record(now, "node.slots", lbl, 4)
			c.db.Record(now, "node.crashed", lbl, 0)
			c.db.Record(now, "node.predicted_load", lbl, float64(n))
		}
		c.db.Record(now, "gis.minority_writes", nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.engine.eval(now)
	}
}
