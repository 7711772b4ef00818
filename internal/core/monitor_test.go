package core

import (
	"slices"
	"testing"

	"vmgrid/internal/gis"
	"vmgrid/internal/hostos"
	"vmgrid/internal/placement"
	"vmgrid/internal/rps"
	"vmgrid/internal/sim"
	"vmgrid/internal/trace"
)

func TestMonitorRefreshesPredictedLoad(t *testing.T) {
	g := testbed(t)
	m, err := g.StartMonitor()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	// Put persistent load on compute1 so its forecast rises.
	bgTrace := &trace.Trace{Step: sim.Second, Loads: []float64{2.0}}
	lp := hostos.NewLoadProcess(g.Node("compute1").Host(), "bg", bgTrace)
	lp.Start()

	_ = g.Kernel().RunUntil(sim.Time(2 * sim.Minute))
	if m.Ticks() < 100 {
		t.Fatalf("monitor ticked %d times in 2 minutes", m.Ticks())
	}

	loaded := m.PredictedLoad("compute1")
	idle := m.PredictedLoad("compute2")
	if loaded <= idle {
		t.Errorf("predicted load: loaded node %v <= idle node %v", loaded, idle)
	}

	// The information service reflects the forecasts...
	e1, err := g.Info().Lookup(gis.KindVMFuture, "compute1")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := g.Info().Lookup(gis.KindVMFuture, "compute2")
	if err != nil {
		t.Fatal(err)
	}
	if e1.Float(gis.AttrLoad) <= e2.Float(gis.AttrLoad) {
		t.Errorf("advertised load: %v <= %v", e1.Float(gis.AttrLoad), e2.Float(gis.AttrLoad))
	}

	// ...so a new session avoids the loaded node.
	s := startSession(t, g, baseConfig())
	if s.Node().Name() != "compute2" {
		t.Errorf("session placed on %s despite load forecast", s.Node().Name())
	}
}

func TestMonitorStopHaltsTicks(t *testing.T) {
	g := testbed(t)
	m, err := g.StartMonitor()
	if err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(sim.Time(5 * sim.Second))
	m.Stop()
	ticks := m.Ticks()
	_ = g.Kernel().RunUntil(sim.Time(30 * sim.Second))
	if m.Ticks() != ticks {
		t.Error("monitor kept ticking after Stop")
	}
	m.Stop() // idempotent
}

func TestMonitorQueryLanguageIntegration(t *testing.T) {
	// The monitor's records are queryable through the URGIS-style
	// language — the paper's resource-discovery flow end to end.
	g := testbed(t)
	m, err := g.StartMonitor()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	_ = g.Kernel().RunUntil(sim.Time(10 * sim.Second))

	rows, err := g.Info().QueryString(
		`select vm-future where slots >= 1 and site == "nwu" order by load limit 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Entries[0].Name == "" {
		t.Error("empty winner")
	}
}

// freshForecast is PredictedLoad without the cache: a new AR(8) fitted
// on the sensor's whole history.
func freshForecast(t *testing.T, s *rps.Series) float64 {
	t.Helper()
	if s.Len() < 32 {
		return s.Last()
	}
	ar, err := rps.NewAR(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ar.Train(s.Values()); err != nil {
		t.Fatal(err)
	}
	return max(ar.Predict(), 0)
}

// TestPredictedLoadCacheMatchesFreshFit: the forecast cached per sensor
// sample equals a fresh fit after every sample, and whichever reader —
// the monitor tick, the telemetry scrape or the balancer — filled the
// cache in between. Telemetry off sends the balancer to the monitor's
// forecast; telemetry on sends it to the scraped series instead.
func TestPredictedLoadCacheMatchesFreshFit(t *testing.T) {
	for _, withTelemetry := range []bool{false, true} {
		var opts []GridOption
		if withTelemetry {
			opts = append(opts, WithTelemetry())
		}
		g := testbed(t, opts...)
		g.Telemetry().Start()
		m, err := g.StartMonitor()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(m.nodes, []string{"compute1", "compute2"}) {
			t.Fatalf("monitored nodes %q, want name order", m.nodes)
		}
		bal, err := g.StartBalancer(BalancerConfig{BalancerConfig: placement.BalancerConfig{Interval: 2 * sim.Second}})
		if err != nil {
			t.Fatal(err)
		}
		lp := hostos.NewLoadProcess(g.Node("compute1").Host(), "bg",
			&trace.Trace{Step: 7 * sim.Second, Loads: []float64{0.5, 3.0, 1.0, 2.5, 0.2}})
		lp.Start()
		samples := 0
		for _, name := range []string{"compute1", "compute2"} {
			name, sensor := name, m.sensors[name]
			sensor.Tee(func(sim.Time, float64) {
				samples++
				if got, want := m.PredictedLoad(name), freshForecast(t, sensor.Series()); got != want {
					t.Fatalf("%s sample %d: cached forecast %v, fresh fit %v", name, sensor.Samples(), got, want)
				}
			})
		}
		// Half-interval steps land between samples, after the tick,
		// scrape and balancer have all read the forecast.
		for i := 0; i < 240; i++ {
			_ = g.Kernel().RunUntil(g.Kernel().Now().Add(sim.Second / 2))
			for _, name := range []string{"compute1", "compute2"} {
				sensor := m.sensors[name]
				if got, want := m.PredictedLoad(name), freshForecast(t, sensor.Series()); got != want {
					t.Fatalf("telemetry=%v %s at %v: cached forecast %v, fresh fit %v",
						withTelemetry, name, g.Kernel().Now(), got, want)
				}
				if f := m.forecasts[name]; !f.fitted || f.samples != sensor.Samples() {
					t.Fatalf("%s: forecast fitted at sample %d, sensor at %d", name, f.samples, sensor.Samples())
				}
			}
		}
		if samples < 2*100 {
			t.Fatalf("telemetry=%v: checked %d samples in 2 minutes", withTelemetry, samples)
		}
		bal.Stop()
		m.Stop()
	}
}

// monitoredGrid runs a monitor long enough to fill compute1's 512-sample
// sensor history.
func monitoredGrid(b *testing.B) *Monitor {
	g := testbed(b)
	m, err := g.StartMonitor()
	if err != nil {
		b.Fatal(err)
	}
	lp := hostos.NewLoadProcess(g.Node("compute1").Host(), "bg",
		&trace.Trace{Step: 7 * sim.Second, Loads: []float64{0.5, 3.0, 1.0, 2.5, 0.2}})
	lp.Start()
	_ = g.Kernel().RunUntil(sim.Time(600 * sim.Second))
	if n := m.sensors["compute1"].Series().Len(); n != 512 {
		b.Fatalf("sensor history %d samples, want 512", n)
	}
	return m
}

// forecastSink keeps benchmarked forecasts observable to the compiler.
var forecastSink float64

// BenchmarkPredictedLoadCached measures a forecast read between sensor
// samples — every reader after the first in a sampling interval.
func BenchmarkPredictedLoadCached(b *testing.B) {
	m := monitoredGrid(b)
	m.PredictedLoad("compute1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forecastSink = m.PredictedLoad("compute1")
	}
}

// BenchmarkPredictedLoadRefit measures the first read after a sample:
// an AR(8) fit over the full 512-sample history.
func BenchmarkPredictedLoadRefit(b *testing.B) {
	m := monitoredGrid(b)
	f := m.forecasts["compute1"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.fitted = false
		forecastSink = m.PredictedLoad("compute1")
	}
}
