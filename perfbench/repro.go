package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"vmgrid/internal/experiments"
)

// The repro workloads regenerate the paper's evaluation through the
// experiments package, as a reader running gridbench would. One pass
// calls every experiment of the workload once with the run's seed; a
// pass's outputs are the rendered tables, digested so that every pass of
// a run, and at the default seed the committed digests, can be compared.

// workers is the experiment worker count: one, so a pass occupies one
// core and the second is left to the garbage collector, as the repo's
// 2-CPU reference host has.
const workers = 1

// call is one public experiment entry point and its rendered table.
type call struct {
	name string
	rows int // rows the table must have
	run  func(seed uint64) (*experiments.Table, int, error)
}

// tableCall adapts an experiment and its table renderer to a call.
func tableCall[R any](name string, rows int, exp func(uint64) ([]R, error), render func([]R) *experiments.Table) call {
	return call{name, rows, func(seed uint64) (*experiments.Table, int, error) {
		rs, err := exp(seed)
		if err != nil {
			return nil, 0, err
		}
		return render(rs), len(rs), nil
	}}
}

// repro is one repro workload: its experiment calls and how many
// rounds a pass makes. A round calls every experiment once with one
// sub-seed derived from the run's seed. Simulated work differs from seed
// to seed by more than the benchmark's bounds, so a pass spans several
// rounds to average that difference out of regen_s, and passes repeat
// so that every round's tables are checked for determinism.
type repro struct {
	calls  []call
	rounds int
}

// reproData is the data-plane pass: Figure 1, Tables 1 and 2 at the
// paper's sample counts, and Ablation J (delta checkpoints).
var reproData = repro{rounds: 4, calls: []call{
	tableCall("fig1", 12, func(s uint64) ([]experiments.Fig1Row, error) {
		return experiments.Figure1(experiments.Fig1Config{Seed: s, Samples: 1000, TaskSeconds: 1, Workers: workers})
	}, experiments.Figure1Table),
	tableCall("table1", 6, func(s uint64) ([]experiments.Table1Row, error) {
		return experiments.Table1(s, workers)
	}, experiments.Table1Table),
	tableCall("table2", 6, func(s uint64) ([]experiments.Table2Row, error) {
		return experiments.Table2(experiments.Table2Config{Seed: s, Samples: 10, Workers: workers})
	}, experiments.Table2Table),
	tableCall("delta", 12, func(s uint64) ([]experiments.DeltaRow, error) {
		return experiments.AblationDelta(s, 0, workers)
	}, experiments.DeltaTable),
}}

// reproControl is the control-plane pass: Ablations H (partition), I
// (balance) and G (recovery) at one replicate each. H checks its safety
// invariants in-run, so a clean table is itself a correctness check.
var reproControl = repro{rounds: 3, calls: []call{
	tableCall("partition", 6, func(s uint64) ([]experiments.PartitionRow, error) {
		return experiments.AblationPartition(s, 1, workers)
	}, experiments.PartitionTable),
	tableCall("balance", 6, func(s uint64) ([]experiments.BalanceRow, error) {
		return experiments.AblationBalance(s, 1, workers)
	}, experiments.BalanceTable),
	tableCall("recovery", 8, func(s uint64) ([]experiments.RecoveryRow, error) {
		return experiments.AblationRecovery(s, 1, workers)
	}, experiments.RecoveryTable),
}}

// spanShares are the per-call layer shares reported as metrics: the
// hotspot of each call that the layer table is expected to show.
var spanShares = []struct{ metric, span, layer string }{
	{"table2.hostos.cpu_frac", "experiments.table2", "hostos"},
	{"partition.telemetry.cpu_frac", "experiments.partition", "telemetry"},
	{"partition.gis.cpu_frac", "experiments.partition", "gis"},
	{"balance.rps.cpu_frac", "experiments.balance", "rps"},
}

// defaultSeed is the seed whose digests are committed.
const defaultSeed = 1

// setupRounds is how many times set-up checks the committed digests.
const setupRounds = 3

//go:embed digests.json
var committedDigests []byte

// timings collects per-call host seconds across passes.
type timings struct {
	wall, cpu map[string][]float64
	alloc     []float64 // MB per pass
}

func newTimings() *timings {
	return &timings{wall: map[string][]float64{}, cpu: map[string][]float64{}}
}

// regen sums each call's median: the seconds one regeneration of the
// workload's tables takes. Medians over many calls keep a burst of
// interference from other processes out of the figure.
func regen(calls []call, m map[string][]float64) float64 {
	sum := 0.0
	for _, c := range calls {
		sum += median(m[c.name])
	}
	return sum
}

// pass runs one round per seed, counting each call as one op, and
// returns the tables' digests by call name and round.
func (b *bench) pass(calls []call, seeds []uint64, t *timings) map[string]string {
	digests := map[string]string{}
	alloc0 := totalAlloc()
	for round, seed := range seeds {
		for _, c := range calls {
			var (
				tbl  *experiments.Table
				rows int
				err  error
			)
			cpu0, start := cpuSeconds(), time.Now()
			b.span("experiments."+c.name, func() { tbl, rows, err = c.run(seed) })
			t.wall[c.name] = append(t.wall[c.name], time.Since(start).Seconds())
			t.cpu[c.name] = append(t.cpu[c.name], cpuSeconds()-cpu0)
			if err == nil && rows != c.rows {
				err = fmt.Errorf("%d rows, want %d", rows, c.rows)
			}
			if b.op(c.name, err) {
				sum := sha256.Sum256([]byte(tbl.String()))
				digests[digestKey(c.name, round)] = hex.EncodeToString(sum[:8])
			}
		}
	}
	t.alloc = append(t.alloc, float64(totalAlloc()-alloc0)/(1<<20))
	return digests
}

func digestKey(call string, round int) string { return fmt.Sprintf("%s@%d", call, round) }

// checkDigests compares a pass's digests with reference ones and counts
// each mismatch as a failed op.
func (b *bench) checkDigests(got, want map[string]string, against string) {
	for k, g := range got {
		if w := want[k]; g != w {
			b.op(k, fmt.Errorf("table digest %s, %s has %q", g, against, w))
		}
	}
}

func runRepro(b *bench, w repro) error {
	// Set-up checks the program against the committed digests: it runs
	// one round at the default seed, whatever the run's seed, and its
	// tables must match digests.json. It is done setupRounds times and
	// setup_s is the median; the first is also the process's cold call
	// of each experiment, which fills any lazily built state.
	var committed map[string]string
	if err := json.Unmarshal(committedDigests, &committed); err != nil {
		return fmt.Errorf("committed digests: %w", err)
	}
	want := map[string]string{}
	for name, d := range committed {
		want[digestKey(name, 0)] = d
	}
	var first map[string]string
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		d := b.pass(w.calls, []uint64{defaultSeed}, newTimings())
		setups = append(setups, time.Since(start).Seconds())
		b.checkDigests(d, want, "digests.json")
		if first == nil {
			first = d
		}
	}
	b.put("setup_s", "s", median(setups), setupRounds)

	seeds := make([]uint64, w.rounds)
	for i := range seeds {
		seeds[i] = experiments.SampleSeed(b.seed, i)
	}
	plain, traced := newTimings(), newTimings()
	var ref map[string]string
	err := b.phases(func(profiled bool) error {
		t := plain
		if profiled {
			t = traced
		}
		d := b.pass(w.calls, seeds, t)
		// Every pass of a run has the same inputs and must give the
		// same tables.
		if ref == nil {
			ref = d
		} else {
			b.checkDigests(d, ref, "the run's first pass")
		}
		return nil
	})
	if err != nil {
		return err
	}

	passes := len(plain.alloc)
	n := passes * w.rounds
	regenS := regen(w.calls, plain.wall)
	b.put("regen_s", "s", regenS, n)
	b.put("regen_cpu_s", "s", regen(w.calls, plain.cpu), n)
	b.put("runtime.alloc_mb", "MB", median(plain.alloc)/float64(w.rounds), passes)
	for _, c := range w.calls {
		b.put("experiments."+c.name+"_s", "s", median(plain.wall[c.name]), n)
	}
	for _, c := range w.calls {
		h := sha256.New()
		for i := range seeds {
			h.Write([]byte(ref[digestKey(c.name, i)]))
		}
		b.note("digest %s: default seed %s, this seed's %d rounds %x",
			c.name, first[digestKey(c.name, 0)], w.rounds, h.Sum(nil)[:8])
	}
	if !b.traced {
		return nil
	}
	b.put("trace_overhead_frac", "frac", regen(w.calls, traced.wall)/regenS-1, len(traced.alloc)*w.rounds)
	b.putLayers()
	for _, s := range spanShares {
		if n := b.ledger.samples(s.span); n > 0 {
			b.put(s.metric, "frac", b.ledger.shares(s.span)[s.layer], n)
		}
	}
	return nil
}

// field extracts one number from each element.
func field[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
