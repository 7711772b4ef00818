// Package telemetry is the grid-wide monitoring pipeline: a bounded
// in-memory time-series store fed by periodic scrapes of the fabric
// (node and session gauges, supervisor lease ages, rps load
// predictions), windowed aggregation over the stored
// history, and a declarative threshold/for-duration alert engine whose
// firings are ordinary simulated-time events.
//
// The package generalizes rps.Series — a plain float64 ring buffer — to
// timestamped, labeled series: each Series is still a bounded ring, but
// every sample carries its sim.Time and the series is keyed by a name
// plus a sorted label set, Prometheus-style ("node.load{node=c1}").
//
// Like obs, telemetry inherits the two design rules of the simulation:
//
//   - Determinism. Samples are stamped with sim.Time; snapshot, export,
//     and rule-evaluation order are pure functions of the recorded data
//     (series in key order, rules in registration order). A telemetry
//     set collected under the parallel experiment runner is therefore
//     byte-identical at any -parallel worker count.
//
//   - Nil fast path. A nil *Collector is the disabled state: every
//     method is a nil-receiver no-op, so instrumented code pays one
//     pointer test when telemetry is off.
//
// telemetry depends only on internal/sim, internal/obs, and the
// standard library.
package telemetry

import (
	"fmt"
	"sort"

	"vmgrid/internal/sim"
)

// Point is one timestamped sample.
type Point struct {
	At sim.Time
	V  float64
}

// Label is one key=value dimension of a series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// appendKey appends the canonical key of name plus sorted labels to buf
// — the series identity, e.g. `node.load{node=c1}`; series with no
// labels key as the bare name. It is the one renderer behind Record and
// Find.
func appendKey(buf []byte, name string, labels []Label) []byte {
	buf = append(buf, name...)
	if len(labels) == 0 {
		return buf
	}
	buf = append(buf, '{')
	for i, l := range labels {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, l.Key...)
		buf = append(buf, '=')
		buf = append(buf, l.Value...)
	}
	return append(buf, '}')
}

// Series is a bounded ring buffer of timestamped samples under one
// (name, labels) identity — rps.Series with time and dimensions.
type Series struct {
	name   string
	labels []Label // sorted by key
	key    string

	data  []Point
	start int
	n     int
	// unordered is set once a sample older than its predecessor is
	// added; window searches then fall back to the full scan.
	unordered bool
}

// Name returns the series name (without labels).
func (s *Series) Name() string { return s.name }

// Labels returns the sorted label set (shared; do not mutate).
func (s *Series) Labels() []Label { return s.labels }

// Key returns the canonical identity, name{k=v,...}.
func (s *Series) Key() string { return s.key }

// Add appends a sample, evicting the oldest when the ring is full.
func (s *Series) Add(at sim.Time, v float64) {
	if s.n > 0 && at < s.Last().At {
		s.unordered = true
	}
	if s.n < len(s.data) {
		s.data[(s.start+s.n)%len(s.data)] = Point{At: at, V: v}
		s.n++
		return
	}
	s.data[s.start] = Point{At: at, V: v}
	s.start = (s.start + 1) % len(s.data)
}

// Len returns the number of stored samples.
func (s *Series) Len() int { return s.n }

// Last returns the most recent sample (zero Point if empty).
func (s *Series) Last() Point {
	if s.n == 0 {
		return Point{}
	}
	return s.data[(s.start+s.n-1)%len(s.data)]
}

// Points returns the samples oldest-first (a copy).
func (s *Series) Points() []Point {
	out := make([]Point, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.data[(s.start+i)%len(s.data)]
	}
	return out
}

// Agg summarizes the samples of one window.
type Agg struct {
	Count int
	Min   float64
	Max   float64
	Mean  float64
	Last  float64
	// P99 is the nearest-rank 99th percentile of the window.
	P99 float64
}

// at returns the i'th stored sample, oldest first.
func (s *Series) at(i int) Point { return s.data[(s.start+i)%len(s.data)] }

// first returns the index of the oldest stored sample with At >= since.
// Sample times never decrease on the recording paths, so a binary search
// finds it; a series that was ever handed an older sample answers 0 and
// leaves the At filter to its callers' full scan.
func (s *Series) first(since sim.Time) int {
	if s.unordered {
		return 0
	}
	return sort.Search(s.n, func(i int) bool { return s.at(i).At >= since })
}

// Window aggregates the samples with At >= since (min/max/mean/p99 over
// the sliding window, plus the latest value). An empty window returns
// the zero Agg.
func (s *Series) Window(since sim.Time) Agg { return s.window(since, true) }

// window is Window with the p99 copy-and-sort optional: the rule engine
// asks for it only on p99() rules.
func (s *Series) window(since sim.Time, p99 bool) Agg {
	var vals []float64
	var a Agg
	for i := s.first(since); i < s.n; i++ {
		p := s.at(i)
		if p.At < since {
			continue
		}
		if p99 {
			vals = append(vals, p.V)
		}
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
	if !p99 {
		return a
	}
	sort.Float64s(vals)
	rank := (99*len(vals) + 99) / 100 // nearest-rank ceil(0.99·n)
	if rank < 1 {
		rank = 1
	}
	a.P99 = vals[rank-1]
	return a
}

// Rate returns the per-second increase of the series over the window —
// (last-first)/(t_last-t_first) across samples with At >= since. Windows
// with fewer than two samples (or no time spread) rate as 0. Meaningful
// for cumulative counters.
func (s *Series) Rate(since sim.Time) float64 {
	var first, last Point
	count := 0
	for i := s.first(since); i < s.n; i++ {
		p := s.at(i)
		if p.At < since {
			continue
		}
		if count == 0 {
			first = p
		}
		last = p
		count++
	}
	if count < 2 || last.At <= first.At {
		return 0
	}
	return (last.V - first.V) / last.At.Sub(first.At).Seconds()
}

// DB is the bounded time-series store: series are created on first
// write and hold at most the configured history per series. Canonical
// keys are interned: the observe path renders the key into a reused
// scratch buffer and resolves the series through a zero-copy map
// lookup, so recording to an existing series allocates nothing. A
// per-name index, kept in key order as series are created, lets rule
// selection walk only the series of one name.
type DB struct {
	history int
	series  map[string]*Series
	byName  map[string][]*Series // per name, key-sorted; a series joins on creation
	keyBuf  []byte               // scratch for canonical-key rendering
}

// NewDB creates a store keeping history samples per series.
func NewDB(history int) (*DB, error) {
	if history <= 0 {
		return nil, fmt.Errorf("telemetry: history %d", history)
	}
	return &DB{history: history, series: make(map[string]*Series), byName: make(map[string][]*Series)}, nil
}

// create interns a new series under key and files it in the name index
// at its key-sorted position. labels must be sorted; the slice is
// retained.
func (db *DB) create(name string, labels []Label, key string) *Series {
	s := &Series{name: name, labels: labels, key: key, data: make([]Point, db.history)}
	db.series[key] = s
	idx := db.byName[name]
	i := sort.Search(len(idx), func(i int) bool { return idx[i].key >= key })
	idx = append(idx, nil)
	copy(idx[i+1:], idx[i:])
	idx[i] = s
	db.byName[name] = idx
	return s
}

// labelsSorted reports whether ls is sorted by key — the manual loop
// sort.SliceIsSorted would run, without boxing the slice or minting a
// comparison closure on every Record.
func labelsSorted(ls []Label) bool {
	for i := 1; i < len(ls); i++ {
		if ls[i].Key < ls[i-1].Key {
			return false
		}
	}
	return true
}

// Record appends a sample to the series for (name, labels), creating it
// on first use. Labels are sorted by key before keying. Unlabeled
// samples — the inline instrumentation hot path — resolve by name
// directly; labeled samples render their canonical key into the scratch
// buffer and intern it on first use.
func (db *DB) Record(at sim.Time, name string, labels []Label, v float64) {
	if len(labels) == 0 {
		s := db.series[name]
		if s == nil {
			s = db.create(name, nil, name)
		}
		s.Add(at, v)
		return
	}
	sorted := labels
	if !labelsSorted(labels) {
		sorted = append([]Label(nil), labels...)
		sortLabels(sorted)
	}
	db.keyBuf = appendKey(db.keyBuf[:0], name, sorted)
	s := db.series[string(db.keyBuf)] // zero-copy lookup: the conversion does not escape
	if s == nil {
		s = db.create(name, sorted, string(db.keyBuf))
	}
	s.Add(at, v)
}

// Lookup returns the series with the exact canonical key, or nil.
func (db *DB) Lookup(key string) *Series { return db.series[key] }

// Find returns the series for (name, labels), or nil — the typed form of
// Lookup. The key is rendered by the same code as Record, into a stack
// buffer, so finding an existing series allocates nothing and leaves the
// store untouched (safe alongside other readers).
func (db *DB) Find(name string, labels ...Label) *Series {
	if !labelsSorted(labels) {
		labels = append([]Label(nil), labels...)
		sortLabels(labels)
	}
	var scratch [64]byte
	return db.series[string(appendKey(scratch[:0], name, labels))]
}

// Len returns the number of distinct series.
func (db *DB) Len() int { return len(db.series) }

// Keys returns every canonical series key, sorted — the deterministic
// iteration order for snapshots and export.
func (db *DB) Keys() []string {
	keys := make([]string, 0, len(db.series))
	for k := range db.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Select returns the series matching name and carrying every label of
// sub (a subset match; empty sub matches all), in key order.
func (db *DB) Select(name string, sub []Label) []*Series {
	var out []*Series
	for _, s := range db.byName[name] {
		if labelsSubset(sub, s.labels) {
			out = append(out, s)
		}
	}
	return out
}

// labelsSubset reports whether every label of sub appears in set.
func labelsSubset(sub, set []Label) bool {
	for _, want := range sub {
		found := false
		for _, have := range set {
			if have.Key == want.Key && have.Value == want.Value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
