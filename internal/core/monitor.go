package core

import (
	"fmt"

	"vmgrid/internal/gis"
	"vmgrid/internal/rps"
	"vmgrid/internal/sim"
	"vmgrid/internal/telemetry"
)

// Monitor closes the paper's adaptation loop (§3.2, application
// perspective): per-node load sensors feed time series, predictors
// forecast near-future load, and the VM-future advertisements in the
// information service carry the *predicted* load — so FindFutures ranks
// placements by where load is going, not just where it is.
type Monitor struct {
	grid      *Grid
	interval  sim.Duration
	nodes     []string // monitored compute nodes, name-sorted
	sensors   map[string]*rps.Sensor
	forecasts map[string]*forecast
	history   []float64 // reused training buffer
	running   bool
	next      sim.EventID
	ticks     int
}

// forecast is one node's AR model and its latest prediction, fitted at
// the sensor's samples-th sample. A forecast depends only on the sensor
// history, so it is refitted once per sample however many readers (the
// monitor tick, the telemetry scrape, placement, the balancer) ask.
type forecast struct {
	ar      *rps.AR
	fitted  bool
	samples uint64
	load    float64
}

// StartMonitor begins sampling every compute node at the given interval
// (the RPS host-load sensor cadence; 1 s matches the original toolkit).
func (g *Grid) StartMonitor(interval sim.Duration) (*Monitor, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("core: monitor interval %v", interval)
	}
	m := &Monitor{
		grid:      g,
		interval:  interval,
		sensors:   make(map[string]*rps.Sensor),
		forecasts: make(map[string]*forecast),
	}
	// Name order, so sensors arm their kernel events and ticks stamp
	// their quorum writes identically on every run.
	for _, name := range g.NodeNames() {
		node := g.nodes[name]
		if node.gk == nil {
			continue
		}
		host := node.host
		sensor, err := rps.NewSensor(g.k, interval, 512, func() float64 {
			return host.LoadAverage()
		})
		if err != nil {
			return nil, err
		}
		ar, err := rps.NewAR(8)
		if err != nil {
			return nil, err
		}
		// Tee every raw sensor reading into the telemetry store (no-op
		// while telemetry is off — g.telemetry is nil-safe).
		nodeName := name
		sensor.Tee(func(at sim.Time, v float64) {
			g.telemetry.Record("node.load_sample", v, telemetry.L("node", nodeName))
		})
		m.nodes = append(m.nodes, name)
		m.sensors[name] = sensor
		m.forecasts[name] = &forecast{ar: ar}
		sensor.Start()
	}
	m.running = true
	m.tick()
	g.monitor = m
	return m, nil
}

// Stop halts sampling and prediction.
func (m *Monitor) Stop() {
	if !m.running {
		return
	}
	m.running = false
	m.grid.k.Cancel(m.next)
	m.next = sim.EventID{}
	for _, s := range m.sensors {
		s.Stop()
	}
}

// PredictedLoad returns the current forecast for a node (falls back to
// the last sample until the model has enough history). The model is
// refitted only when the sensor has taken a sample since the last fit.
func (m *Monitor) PredictedLoad(node string) float64 {
	sensor, ok := m.sensors[node]
	if !ok {
		return 0
	}
	f := m.forecasts[node]
	if n := sensor.Samples(); !f.fitted || f.samples != n {
		f.load = m.fit(sensor.Series(), f.ar)
		f.fitted, f.samples = true, n
	}
	return f.load
}

// fit trains model on series and returns its one-step forecast.
func (m *Monitor) fit(series *rps.Series, model *rps.AR) float64 {
	if series.Len() >= 32 {
		m.history = series.AppendValues(m.history[:0])
		if err := model.Train(m.history); err == nil {
			p := model.Predict()
			if p < 0 {
				p = 0
			}
			return p
		}
	}
	return series.Last()
}

// tick refreshes every compute node's VM-future record with the
// predicted load.
func (m *Monitor) tick() {
	if !m.running {
		return
	}
	m.ticks++
	for _, name := range m.nodes {
		node := m.grid.nodes[name]
		spec := node.host.Spec()
		_ = m.grid.info.Register(gis.KindVMFuture, name, map[string]any{
			gis.AttrSite:      node.site,
			gis.AttrSlots:     int64(node.slots),
			gis.AttrSpeed:     spec.CPU.Speed,
			gis.AttrMemBytes:  spec.MemBytes / 2,
			gis.AttrDiskBytes: spec.Disk.CapacityBytes,
			gis.AttrLoad:      m.PredictedLoad(name),
		}, 0)
	}
	m.next = m.grid.k.After(m.interval, m.tick)
}

// Ticks returns how many refresh rounds have run.
func (m *Monitor) Ticks() int { return m.ticks }
