package experiments

import (
	"context"
	"fmt"
	"sort"

	"vmgrid/internal/core"
	"vmgrid/internal/guest"
	"vmgrid/internal/hw"
	"vmgrid/internal/placement"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
	"vmgrid/internal/telemetry"
	"vmgrid/internal/vmm"
)

// ---------------------------------------------------------------------
// Ablation I: placement policy × autonomic balancer (skewed arrivals)
// ---------------------------------------------------------------------
//
// The paper's application perspective (§3.2) has the middleware adapt
// placement to resource dynamics. This ablation measures the whole
// adaptation loop end to end: sessions arrive in bursts (a skewed
// arrival pattern that piles load onto whichever node ranks first),
// placed by a swept policy, while the autonomic balancer — driven by
// the telemetry pipeline's predicted-load series — optionally relieves
// sustained hotspots with fenced live migrations. Reported per arm:
// p50/p99 task slowdown (elapsed over demanded CPU-seconds; the cost
// users feel from co-location) and the node-utilization spread (the
// imbalance the policy left behind).

// BalanceRow aggregates one (policy, balancer on/off) arm.
type BalanceRow struct {
	// Policy is the placement policy under test.
	Policy string
	// Balancer reports whether the autonomic balancer ran.
	Balancer bool
	// P50 and P99 are slowdown percentiles pooled over every task of
	// every sample (slowdown = elapsed / demanded CPU-seconds; 1.0 is a
	// task that never shared its node).
	P50 float64
	P99 float64
	// SpreadLoad is the mean over samples of (max − min) per-node mean
	// load — how unevenly the arm used the three compute nodes.
	SpreadLoad float64
	// Migrations is the mean number of balancer migrations per run.
	Migrations float64
}

// balanceArm is one simulated run of the burst workload under one
// (policy, balancer) combination.
type balanceArm struct {
	Slowdowns  []float64
	Spread     float64
	Migrations int
}

// balanceOffsets staggers the nine session arrivals into three bursts —
// the skew that separates the policies. Within a burst the sessions
// land faster than load signals move, so a policy that keeps ranking
// the same node first stacks the whole burst there.
var balanceOffsets = []sim.Duration{
	0, 1 * sim.Second, 2 * sim.Second, 3 * sim.Second,
	150 * sim.Second, 151 * sim.Second, 152 * sim.Second,
	300 * sim.Second, 301 * sim.Second,
}

// balancePolicies are the swept placement policies, in report order.
var balancePolicies = []struct {
	name   string
	placer placement.Placer
}{
	{"least-loaded", placement.LeastLoaded{}},
	{"predicted-load", placement.PredictedLoad{}},
	{"pack", placement.Pack{}},
}

// AblationBalance sweeps placement policy × balancer on/off over the
// burst workload. The design is paired: one sample is one replicate
// whose per-task CPU demands — drawn from the sample's seed — replay
// identically across all six arms, so arms compare the same work.
// samples <= 0 selects the default replicate count; samples fan out
// across workers goroutines and the tables are byte-identical at any
// worker count.
func AblationBalance(seed uint64, samples, workers int) ([]BalanceRow, error) {
	if samples <= 0 {
		samples = 4
	}
	arms, err := RunSamples(context.Background(), seed, samples, workers,
		func(i int, sseed uint64) ([]balanceArm, error) {
			// One demand vector per sample, shared by every arm.
			rng := sim.NewRNG(sseed)
			demands := make([]float64, len(balanceOffsets))
			for j := range demands {
				demands[j] = rng.Uniform(180, 420)
			}
			out := make([]balanceArm, 0, 2*len(balancePolicies))
			for _, p := range balancePolicies {
				for _, balance := range []bool{false, true} {
					a, err := balanceRun(sseed, demands, p.placer, balance)
					if err != nil {
						return nil, fmt.Errorf("balance policy=%s balancer=%v sample %d: %w",
							p.name, balance, i, err)
					}
					out = append(out, a)
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	rows := make([]BalanceRow, 0, 2*len(balancePolicies))
	for pi, p := range balancePolicies {
		for bi, balance := range []bool{false, true} {
			var pooled []float64
			var spread float64
			var migrations int
			for si := 0; si < samples; si++ {
				a := arms[si][2*pi+bi]
				pooled = append(pooled, a.Slowdowns...)
				spread += a.Spread
				migrations += a.Migrations
			}
			rows = append(rows, BalanceRow{
				Policy:     p.name,
				Balancer:   balance,
				P50:        quantile(pooled, 0.50),
				P99:        quantile(pooled, 0.99),
				SpreadLoad: spread / float64(samples),
				Migrations: float64(migrations) / float64(samples),
			})
		}
	}
	return rows, nil
}

// quantile is the nearest-rank quantile of vs (not mutated).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// balanceRun simulates the nine-session burst workload to completion on
// three compute nodes: every session is created through the policy
// under test, runs one CPU-bound task, and (when balance is set) the
// autonomic balancer watches predicted load and relieves sustained
// hotspots with fenced live migrations.
func balanceRun(seed uint64, demands []float64, placer placement.Placer, balance bool) (balanceArm, error) {
	var arm balanceArm
	g := core.NewGrid(seed)
	k := g.Kernel()
	// The telemetry pipeline supplies the balancer's load signal (the
	// monitor's predicted-load series lands in the TSDB via the scrape
	// loop) and the per-node utilization series the spread is read from.
	col, err := g.EnableTelemetry(telemetry.Config{})
	if err != nil {
		return arm, err
	}
	col.Start()
	computes := []string{"c1", "c2", "c3"}
	for _, cfg := range []core.NodeConfig{
		{Name: "front", Site: "a", Role: core.RoleFrontEnd},
		{Name: "c1", Site: "a", Role: core.RoleCompute, Slots: 4, DHCPPrefix: "10.1.0."},
		{Name: "c2", Site: "a", Role: core.RoleCompute, Slots: 4, DHCPPrefix: "10.1.1."},
		{Name: "c3", Site: "a", Role: core.RoleCompute, Slots: 4, DHCPPrefix: "10.1.2."},
		{Name: "data", Site: "a", Role: core.RoleDataServer},
	} {
		if _, err := g.AddNode(cfg); err != nil {
			return arm, err
		}
	}
	if err := g.Net().BuildLAN("front", "c1", "c2", "c3", "data"); err != nil {
		return arm, err
	}
	img := storage.ImageInfo{Name: "rh72", OS: "rh72", DiskBytes: 2 * hw.GB, MemBytes: 64 * hw.MB}
	for _, n := range computes {
		if err := g.Node(n).InstallImage(img); err != nil {
			return arm, err
		}
	}
	// The monitor feeds the predicted-load policy and the balancer: raw
	// 1 s load samples, AR forecasts republished into the VM futures.
	mon, err := g.StartMonitor(sim.Second)
	if err != nil {
		return arm, err
	}
	defer mon.Stop()

	var bal *placement.Balancer
	if balance {
		bal, err = g.StartBalancer(core.BalancerConfig{
			BalancerConfig: placement.BalancerConfig{
				Interval:  5 * sim.Second,
				HotLoad:   2.5,
				ClearLoad: 1.2,
				Sustain:   3,
				Cooldown:  90 * sim.Second,
			},
			// Relief always goes to the coolest viable node, whatever
			// policy caused the hotspot.
			Placer: placement.LeastLoaded{},
		})
		if err != nil {
			return arm, err
		}
		defer bal.Stop()
	}

	slowdowns := make([]float64, len(demands))
	finished := 0
	var firstErr error
	fail := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	for j, offset := range balanceOffsets {
		j, demand := j, demands[j]
		k.After(offset, func() {
			if _, err := g.CreateSession(core.SessionConfig{
				User: "bench", FrontEnd: "front", Image: "rh72",
				Mode: vmm.WarmRestore, Disk: core.NonPersistent, Access: core.AccessLocal,
			}, func(s *core.Session, err error) {
				if err != nil {
					fail(err)
					finished++ // count it done so the run terminates
					return
				}
				start := k.Now()
				if err := s.Run(guest.MicroTask(demand), func(res guest.TaskResult) {
					fail(res.Err)
					slowdowns[j] = k.Now().Sub(start).Seconds() / demand
					finished++
				}); err != nil {
					fail(err)
					finished++
				}
			}, core.WithPlacer(placer)); err != nil {
				fail(err)
				finished++
			}
		})
	}

	// The monitor and scrape loops keep the event queue non-empty
	// forever, so drive the kernel in bounded quanta.
	deadline := k.Now().Add(12 * sim.Hour)
	for finished < len(demands) && k.Now() < deadline {
		_ = k.RunUntil(k.Now().Add(sim.Minute))
	}
	if bal != nil {
		bal.Stop()
		arm.Migrations = bal.Stats().Migrations
	}
	col.Stop()
	if firstErr != nil {
		return arm, firstErr
	}
	if finished < len(demands) {
		return arm, fmt.Errorf("experiments: balance run stalled at %d/%d tasks", finished, len(demands))
	}
	// Node-utilization spread: max − min of the per-node mean load over
	// the whole run, from the telemetry node.load series.
	db := col.DB()
	minMean, maxMean := 0.0, 0.0
	for i, n := range computes {
		mean := 0.0
		if s := db.Find("node.load", telemetry.L("node", n)); s != nil && s.Len() > 0 {
			mean = s.Window(0).Mean
		}
		if i == 0 || mean < minMean {
			minMean = mean
		}
		if mean > maxMean {
			maxMean = mean
		}
	}
	arm.Spread = maxMean - minMean
	arm.Slowdowns = slowdowns
	return arm, nil
}

// BalanceTable renders ablation I.
func BalanceTable(rows []BalanceRow) *Table {
	t := &Table{
		Title: "Ablation I: placement policy vs autonomic balancer (skewed arrivals)",
		Note: "9 sessions in 3 bursts on 3 compute nodes; slowdown = elapsed / demanded " +
			"CPU-seconds; spread = max-min per-node mean load; migrations are balancer-driven " +
			"fenced live migrations per run",
		Header: []string{"policy", "balancer", "p50 slowdown", "p99 slowdown",
			"load spread", "migrations"},
	}
	for _, r := range rows {
		onOff := "off"
		if r.Balancer {
			onOff = "on"
		}
		t.Rows = append(t.Rows, []string{
			r.Policy,
			onOff,
			f2(r.P50),
			f2(r.P99),
			f2(r.SpreadLoad),
			f1(r.Migrations),
		})
	}
	return t
}
