package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vmgrid/internal/sim"
)

// bruteSelect is Select as a full scan: every key sorted, filtered by
// name and label subset.
func bruteSelect(db *DB, name string, sub []Label) []*Series {
	var out []*Series
	for _, k := range db.Keys() {
		s := db.Lookup(k)
		if s.Name() == name && labelsSubset(sub, s.Labels()) {
			out = append(out, s)
		}
	}
	return out
}

// bruteWindow is Window as a linear scan over every stored sample.
func bruteWindow(s *Series, since sim.Time) Agg {
	var vals []float64
	var a Agg
	for _, p := range s.Points() {
		if p.At < since {
			continue
		}
		vals = append(vals, p.V)
		if a.Count == 0 || p.V < a.Min {
			a.Min = p.V
		}
		if a.Count == 0 || p.V > a.Max {
			a.Max = p.V
		}
		a.Mean += p.V
		a.Last = p.V
		a.Count++
	}
	if a.Count == 0 {
		return a
	}
	a.Mean /= float64(a.Count)
	sort.Float64s(vals)
	rank := (99*len(vals) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	a.P99 = vals[rank-1]
	return a
}

// bruteRate is Rate as a linear scan over every stored sample.
func bruteRate(s *Series, since sim.Time) float64 {
	var in []Point
	for _, p := range s.Points() {
		if p.At >= since {
			in = append(in, p)
		}
	}
	if len(in) < 2 || in[len(in)-1].At <= in[0].At {
		return 0
	}
	first, last := in[0], in[len(in)-1]
	return (last.V - first.V) / last.At.Sub(first.At).Seconds()
}

func seriesKeys(ss []*Series) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Key()
	}
	return out
}

// TestSelectIndexMatchesSortedScan: the per-name index returns exactly
// the series, in exactly the order, of a sorted-keys scan — whatever
// order the series were created in, labeled or not, for full and
// subset selectors.
func TestSelectIndexMatchesSortedScan(t *testing.T) {
	names := []string{"node.load", "node.load_sample", "lease.age", "vfs.retries"}
	nodes := []string{"c1", "c10", "c2", "compute1", "data"}
	zones := []string{"a", "b"}
	type rec struct {
		name   string
		labels []Label
	}
	var recs []rec
	for _, n := range names {
		recs = append(recs, rec{name: n})
		for _, node := range nodes {
			recs = append(recs, rec{name: n, labels: []Label{L("node", node)}})
			for _, z := range zones {
				// Unsorted spelling: Record must canonicalize.
				recs = append(recs, rec{name: n, labels: []Label{L("zone", z), L("node", node)}})
			}
		}
	}
	selectors := [][]Label{
		nil,
		{L("node", "c1")},
		{L("node", "c2"), L("zone", "b")},
		{L("zone", "a")},
		{L("node", "ghost")},
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, err := NewDB(4)
		if err != nil {
			t.Fatal(err)
		}
		for step, i := range rng.Perm(len(recs)) {
			db.Record(sim.Time(step), recs[i].name, recs[i].labels, float64(step))
			// Re-record a random earlier series: no duplicate index entries.
			j := rng.Intn(len(recs))
			db.Record(sim.Time(step), recs[j].name, recs[j].labels, 0)
		}
		for _, n := range append(names, "absent") {
			for _, sub := range selectors {
				got, want := seriesKeys(db.Select(n, sub)), seriesKeys(bruteSelect(db, n, sub))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d Select(%q, %v):\n got  %q\n want %q", seed, n, sub, got, want)
				}
			}
		}
	}
}

// TestWindowSearchMatchesLinearScan: the binary-searched window start
// gives the same aggregates and rates as the full scan, across ring
// wrap-around, windows before the first and after the last sample, and
// runs of equal timestamps.
func TestWindowSearchMatchesLinearScan(t *testing.T) {
	for _, history := range []int{1, 2, 7, 64} {
		db, err := NewDB(history)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(history)))
		at := sim.Time(10)
		for i := 0; i < 3*history+5; i++ {
			// Steps of 0 keep equal stamps in the ring.
			at += sim.Time(rng.Intn(3)) * sim.Time(sim.Second)
			db.Record(at, "v", nil, rng.Float64()*10-2)
			s := db.Lookup("v")
			if s.unordered {
				t.Fatal("non-decreasing series flagged unordered")
			}
			for since := sim.Time(0); since <= at+sim.Time(2*sim.Second); since += sim.Time(sim.Second) / 2 {
				if got, want := s.Window(since), bruteWindow(s, since); got != want {
					t.Fatalf("history %d, %d samples, Window(%v) = %+v, want %+v", history, i+1, since, got, want)
				}
				if got, want := s.Rate(since), bruteRate(s, since); got != want {
					t.Fatalf("history %d, %d samples, Rate(%v) = %g, want %g", history, i+1, since, got, want)
				}
			}
		}
	}
}

// TestWindowOutOfOrderFallsBack: a series handed an older sample flags
// itself unordered and answers through the full scan, still equal to
// the reference.
func TestWindowOutOfOrderFallsBack(t *testing.T) {
	db, err := NewDB(8)
	if err != nil {
		t.Fatal(err)
	}
	lbl := []Label{L("node", "c1")}
	for _, at := range []sim.Time{1, 2, 3, 9, 4, 5, 10, 2} {
		db.Record(at*sim.Time(sim.Second), "v", lbl, float64(at))
	}
	s := db.Find("v", lbl...)
	if !s.unordered {
		t.Fatal("out-of-order Record did not flag the series unordered")
	}
	for since := sim.Time(0); since <= 11; since++ {
		at := since * sim.Time(sim.Second)
		if got, want := s.Window(at), bruteWindow(s, at); got != want {
			t.Fatalf("Window(%v) = %+v, want %+v", at, got, want)
		}
		if got, want := s.Rate(at), bruteRate(s, at); got != want {
			t.Fatalf("Rate(%v) = %g, want %g", at, got, want)
		}
	}
}

// TestWindowWithoutP99: the rule engine's p99-free window agrees with
// Window on every other field.
func TestWindowWithoutP99(t *testing.T) {
	db, _ := NewDB(16)
	for i := 0; i < 40; i++ {
		db.Record(sim.Time(i), "v", nil, float64((i*7)%11))
	}
	s := db.Lookup("v")
	for since := sim.Time(0); since < 45; since += 3 {
		want := s.Window(since)
		want.P99 = 0
		if got := s.window(since, false); got != want {
			t.Fatalf("window(%v, false) = %+v, want %+v", since, got, want)
		}
	}
}

// TestFindMatchesRecordKey: Find resolves the series Record created,
// for any label spelling, without allocating on a hit.
func TestFindMatchesRecordKey(t *testing.T) {
	db, _ := NewDB(4)
	db.Record(0, "m", nil, 1)
	db.Record(0, "m", []Label{L("b", "2"), L("a", "1")}, 2)
	if s := db.Find("m"); s == nil || s.Key() != "m" {
		t.Fatalf("Find(m) = %v", s)
	}
	for _, ls := range [][]Label{{L("a", "1"), L("b", "2")}, {L("b", "2"), L("a", "1")}} {
		if s := db.Find("m", ls...); s == nil || s.Key() != "m{a=1,b=2}" {
			t.Fatalf("Find(m, %v) = %v", ls, s)
		}
	}
	if s := db.Find("m", L("a", "1")); s != nil {
		t.Fatalf("Find on a label subset = %q, want nil", s.Key())
	}
	node := fmt.Sprint("c", 1)
	allocs := testing.AllocsPerRun(100, func() {
		if db.Find("m", L("a", "1"), L("b", "2")) == nil {
			t.Fatal("miss")
		}
		_ = db.Find("node.predicted_load", L("node", node))
	})
	if allocs != 0 {
		t.Errorf("Find allocates %.1f objects/op, want 0", allocs)
	}
}
