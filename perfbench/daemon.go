package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"vmgrid/internal/hw"
	"vmgrid/internal/wire"
)

// The daemon-sessions workload serves the grid as vmgridd -demo does: an
// in-process wire.Server on loopback TCP with the demo fabric and the
// daemon's default planes (tracing, flight recorder, telemetry, alert
// rules). Two clients drive it:
//
//   - a closed-loop lifecycle client that creates sessions, rotating
//     the access mode, and walks each through run (with data-file
//     reads), trace, migrate, hibernate, wake and shutdown, as far as
//     the session supports them, keeping at most liveSessions alive.
//     Each run is sized around the job of the repository README's
//     daemon walkthrough (vmgridctl run -cpu 60 -reads 100 -read-bytes
//     10000000);
//   - an open-loop dashboard poller standing for one operator dashboard
//     per VM slot of the demo fabric. Each dashboard refreshes its four
//     views (top, alerts, query, metrics) once per host second, the
//     one-frame-per-second cadence of vmgridctl top's default -every 1.
//     The poller sends the reads evenly spaced and times each from when
//     it was due.
//
// The run is a series of epochs, each on a fresh daemon with the same
// session script, so span and series history grows within an epoch the
// way it does in a served daemon while every epoch does the same work.

const (
	sessionsPerEpoch = 40
	liveSessions     = 2              // the demo fabric has 4 slots; migration needs a free one
	dashboards       = 4              // one per VM slot of the demo fabric
	readsPerSecond   = dashboards * 4 // four views each, once per second
	pingsPerEpoch    = 50

	// The README walkthrough's job: 60 CPU seconds and 100 reads of
	// 100 kB each. Each run draws its CPU seconds and read count from
	// half to one and a half times these.
	jobCPUSeconds = 60
	jobReads      = 100
	jobReadBytes  = 100_000 // per read
)

var accessModes = []string{"local", "loopback", "on-demand", "staged"}

// dashboardOps are the poller's requests, sent in rotation.
var dashboardOps = []string{"top", "alerts", "query", "metrics"}

// epochStats is one epoch's measurements.
type epochStats struct {
	setup, wall, cpu float64
	allocBytes       uint64
	ops              int // wire ops sent by the two clients
	lat              map[string][]float64
	late             []float64 // ms the poller woke after a request was due
	ping             []float64 // us
	events           uint64
	hits, misses     uint64
	bytesSent        uint64
	routeComputes    uint64
	counters         map[string]float64
	spans            int
}

// latency classes of the report.
const (
	latCreate    = "create"
	latRun       = "run"
	latLifecycle = "lifecycle"
	latRead      = "read"
	latTrace     = "trace"
)

func runDaemon(b *bench) error {
	var plain, traced []epochStats
	var setups []float64
	err := b.phases(func(profiled bool) error {
		e, err := b.epoch()
		if err != nil {
			return err
		}
		setups = append(setups, e.setup)
		if profiled {
			traced = append(traced, e)
		} else {
			plain = append(plain, e)
		}
		return nil
	})
	if err != nil {
		return err
	}

	b.put("setup_s", "s", median(setups), len(setups))
	regen := median(field(plain, func(e epochStats) float64 { return e.wall }))
	b.put("regen_s", "s", regen, len(plain))
	b.put("regen_cpu_s", "s", median(field(plain, func(e epochStats) float64 { return e.cpu })), len(plain))
	var ops int
	var wall, alloc float64
	lat := map[string][]float64{}
	var late, ping []float64
	for _, e := range plain {
		ops += e.ops
		wall += e.wall
		alloc += float64(e.allocBytes)
		for k, v := range e.lat {
			lat[k] = append(lat[k], v...)
		}
		late = append(late, e.late...)
		ping = append(ping, e.ping...)
	}
	b.put("daemon.ops_per_s", "1/s", float64(ops)/wall, ops)
	for _, k := range []string{latCreate, latRun, latLifecycle, latRead} {
		b.put("daemon."+k+"_p50_ms", "ms", quantile(lat[k], 0.5), len(lat[k]))
		b.put("daemon."+k+"_p95_ms", "ms", quantile(lat[k], 0.95), len(lat[k]))
	}
	b.put("daemon.trace_p50_ms", "ms", quantile(lat[latTrace], 0.5), len(lat[latTrace]))
	latep95 := quantile(late, 0.95)
	b.put("bench.read_late_p95_ms", "ms", latep95, len(late))
	// A poller that wakes more than one send interval late cannot keep
	// its schedule, and its own delay is inside every read latency.
	if period := 1000.0 / readsPerSecond; latep95 > period {
		b.note("dashboard generator fell behind (late p95 %.2f ms > %.0f ms interval): read latencies include its delay", latep95, period)
	}
	b.put("wire.ping_p50_us", "us", quantile(ping, 0.5), len(ping))
	b.put("runtime.alloc_mb", "MB", alloc/(1<<20)/float64(ops)*1000, ops)

	// Every epoch runs the same script; report the last one's counters.
	last := plain[len(plain)-1]
	b.put("sim.events", "count", float64(last.events), 1)
	b.put("hostos.cache_hit_rate", "frac", safeDiv(float64(last.hits), float64(last.hits+last.misses)), 1)
	b.put("netsim.bytes_sent", "bytes", float64(last.bytesSent), 1)
	b.put("netsim.route_computes", "count", float64(last.routeComputes), 1)
	b.put("vfs.rpcs", "count", last.counters["vfs.rpcs"], 1)
	b.put("vfs.retry_frac", "frac", safeDiv(last.counters["vfs.retries"], last.counters["vfs.rpcs"]), 1)
	b.put("gram.submissions", "count", last.counters["gram.submissions"], 1)
	b.put("gram.retry_frac", "frac", safeDiv(last.counters["gram.retries"], last.counters["gram.submissions"]), 1)
	b.put("obs.spans_retained", "count", float64(last.spans), 1)
	if !b.traced {
		return nil
	}
	b.put("trace_overhead_frac", "frac",
		median(field(traced, func(e epochStats) float64 { return e.wall }))/regen-1, len(traced))
	b.putLayers()
	var events uint64
	for _, e := range traced {
		events += e.events
	}
	b.put("sim.ns_per_event", "ns", safeDiv(float64(b.ledger.layerNanos("sim")), float64(events)), int(events))
	return nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// epoch builds a fresh daemon, drives it with both clients until the
// lifecycle script ends, and tears it down. An error here is a broken
// fabric, not a failed op, and aborts the run.
func (b *bench) epoch() (epochStats, error) {
	e := epochStats{lat: map[string][]float64{}}
	// Collect the previous epoch's garbage first, so that set-up is
	// timed from the same clean heap every epoch.
	runtime.GC()
	t0 := time.Now()
	srv := wire.NewServer(b.seed)
	if err := buildDemo(wire.NewLocal(srv)); err != nil {
		return e, fmt.Errorf("demo fabric: %w", err)
	}
	var err error
	// The server's goroutines inherit the label of the one that starts
	// them, so their samples are charged to span wire.server.
	b.span("wire.server", func() { err = srv.Serve("127.0.0.1:0") })
	if err != nil {
		return e, err
	}
	defer srv.Close()
	life, err := wire.Dial(srv.Addr())
	if err != nil {
		return e, err
	}
	defer life.Close()
	dash, err := wire.Dial(srv.Addr())
	if err != nil {
		return e, err
	}
	defer dash.Close()
	e.setup = time.Since(t0).Seconds()

	for i := 0; i < pingsPerEpoch; i++ {
		start := time.Now()
		err := life.Ping()
		e.ping = append(e.ping, float64(time.Since(start).Nanoseconds())/1e3)
		b.op("ping", err)
	}

	alloc0, cpu0, start := totalAlloc(), cpuSeconds(), time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var dashLat, dashLate []float64
	var dashOps, dashFailed int
	var dashFailures []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		dashLat, dashLate, dashOps, dashFailed, dashFailures = b.poll(dash, start, stop)
	}()
	lifeOps := b.lifecycle(life, e.lat)
	close(stop)
	wg.Wait()
	e.wall = time.Since(start).Seconds()
	e.cpu = cpuSeconds() - cpu0
	e.allocBytes = totalAlloc() - alloc0
	e.lat[latRead] = dashLat
	e.late = dashLate
	e.ops = lifeOps + dashOps
	b.attempted += dashOps
	b.failed += dashFailed
	for _, f := range dashFailures {
		if len(b.failures) < 10 {
			b.failures = append(b.failures, f)
		}
	}

	snap, err := life.Metrics()
	if b.op("metrics", err) {
		e.counters = map[string]float64{}
		for _, c := range snap.Counters {
			e.counters[c.Name] = c.Value
		}
	}
	life.Close()
	dash.Close()
	if err := srv.Close(); err != nil {
		return e, err
	}
	// The server has stopped: its grid may be read directly.
	g := srv.Grid()
	e.events = g.Kernel().Dispatched()
	for _, n := range demoNodes {
		c := g.Node(n.Name).Host().Cache()
		e.hits += c.Hits()
		e.misses += c.Misses()
	}
	e.bytesSent = g.Net().BytesSent()
	e.routeComputes = g.Net().RouteComputes()
	e.spans = len(g.Tracer().Spans())
	return e, nil
}

// lifecycle runs the epoch's session script and returns how many ops it
// sent. The script depends only on the seed.
func (b *bench) lifecycle(c *wire.Client, lat map[string][]float64) int {
	rng := rand.New(rand.NewPCG(b.seed, 0x5e55))
	ops := 0
	timed := func(class, what string, fn func() error) bool {
		start := time.Now()
		var err error
		b.span("wire."+what, func() { err = fn() })
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		ops++
		if !b.op(what, err) {
			return false
		}
		lat[class] = append(lat[class], ms)
		return true
	}
	type live struct{ name, node string }
	var alive []live
	shutdown := func(s live) {
		timed(latLifecycle, "shutdown", func() error { return c.Shutdown(s.name) })
	}
	for i := 0; i < sessionsPerEpoch; i++ {
		if len(alive) >= liveSessions {
			shutdown(alive[0])
			alive = alive[1:]
		}
		access := accessModes[i%len(accessModes)]
		var info wire.SessionInfo
		ok := timed(latCreate, "new-session", func() error {
			var err error
			info, err = c.NewSession(wire.SessionParams{
				User: fmt.Sprintf("user%d", i), FrontEnd: "front", Image: "rh72",
				Mode: "restore", Disk: "non-persistent", Access: access,
				DataNode: "data", DataFile: "dataset",
			})
			if err == nil {
				err = checkState(info, "running")
			}
			if _, ready := info.Events["ready"]; err == nil && !ready {
				err = fmt.Errorf("session %s has no ready event", info.Name)
			}
			return err
		})
		if !ok {
			continue
		}
		s := live{info.Name, info.Node}
		alive = append(alive, s)

		cpu := float64(jobCPUSeconds/2 + rng.IntN(jobCPUSeconds+1))
		reads := jobReads/2 + rng.IntN(jobReads+1)
		timed(latRun, "run", func() error {
			r, err := c.Run(wire.RunParams{
				Session: s.name, Name: "job", CPUSeconds: cpu,
				Reads: reads, ReadBytes: int64(reads) * jobReadBytes, Mount: "data",
			})
			if err != nil {
				return err
			}
			if math.Abs(r.UserSec-cpu) > 1e-6*cpu || r.Reads != reads {
				return fmt.Errorf("run reports %.6f cpu s and %d reads, want %.0f and %d", r.UserSec, r.Reads, cpu, reads)
			}
			return nil
		})
		timed(latTrace, "trace", func() error {
			t, err := c.Trace(s.name)
			if err == nil && (t.Session != s.name || len(t.Spans) == 0) {
				err = fmt.Errorf("trace of %s has %d spans for %q", s.name, len(t.Spans), t.Session)
			}
			return err
		})
		// Staged sessions have no copy-on-write diff to move, so the
		// daemon cannot migrate them.
		if access != "staged" {
			target := "compute1"
			if s.node == target {
				target = "compute2"
			}
			timed(latLifecycle, "migrate", func() error {
				info, err := c.Migrate(s.name, target)
				if err == nil && info.Node != target {
					err = fmt.Errorf("migrated %s is on %s, want %s", s.name, info.Node, target)
				}
				if err == nil {
					err = checkState(info, "running")
				}
				return err
			})
		}
		timed(latLifecycle, "hibernate", func() error {
			info, err := c.Hibernate(s.name)
			if err == nil {
				err = checkState(info, "hibernated")
			}
			return err
		})
		timed(latLifecycle, "wake", func() error {
			info, err := c.Wake(s.name)
			if err == nil {
				err = checkState(info, "running")
			}
			return err
		})
	}
	for _, s := range alive {
		shutdown(s)
	}
	return ops
}

func checkState(info wire.SessionInfo, want string) error {
	if info.State != want {
		return fmt.Errorf("session %s is %s, want %s", info.Name, info.State, want)
	}
	return nil
}

// poll sends dashboard reads on a fixed schedule until stop closes. A
// read's latency runs from when it was due, so a stall in the daemon
// counts against every read it delays. Lateness is how long after its
// due time the poller itself woke to send a read whose predecessor had
// already returned: it measures the generator, not the daemon.
func (b *bench) poll(c *wire.Client, start time.Time, stop <-chan struct{}) (lat, late []float64, ops, failed int, failures []string) {
	period := time.Second / readsPerSecond
	prevDone := start
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		// Stop at once when the lifecycle script ends, not at the next
		// due time: the epoch's wall time waits for the poller.
		wait := time.NewTimer(time.Until(due))
		select {
		case <-stop:
			wait.Stop()
			return
		case <-wait.C:
		}
		now := time.Now()
		if prevDone.Before(due) {
			late = append(late, float64(now.Sub(due).Nanoseconds())/1e6)
		}
		what := dashboardOps[k%len(dashboardOps)]
		var err error
		b.span("wire."+what, func() { err = dashboardRead(c, what) })
		prevDone = time.Now()
		ops++
		if err != nil {
			failed++
			if len(failures) < 10 {
				failures = append(failures, fmt.Sprintf("%s: %v", what, err))
			}
			continue
		}
		lat = append(lat, float64(prevDone.Sub(due).Nanoseconds())/1e6)
	}
}

func dashboardRead(c *wire.Client, what string) error {
	switch what {
	case "top":
		t, err := c.Top()
		if err == nil && len(t.Nodes) != len(demoNodes) {
			err = fmt.Errorf("top shows %d nodes, want %d", len(t.Nodes), len(demoNodes))
		}
		return err
	case "alerts":
		a, err := c.Alerts()
		if err == nil && len(a.Rules) == 0 {
			err = fmt.Errorf("no alert rules armed")
		}
		return err
	case "query":
		_, err := c.Query("vm-future")
		return err
	default:
		_, err := c.Metrics()
		return err
	}
}

// demoNodes and the links and images below are the testbed vmgridd
// -demo builds: a front end, two compute nodes and a data server on one
// LAN, an image server across a WAN, a 2 GB RedHat 7.2 image and a 1 GB
// dataset.
var demoNodes = []wire.AddNodeParams{
	{Name: "front", Site: "nwu", Roles: []string{"front-end"}},
	{Name: "compute1", Site: "nwu", Roles: []string{"compute"}, Slots: 2, DHCPPrefix: "10.1.0."},
	{Name: "compute2", Site: "nwu", Roles: []string{"compute"}, Slots: 2, DHCPPrefix: "10.1.1."},
	{Name: "data", Site: "nwu", Roles: []string{"data-server"}},
	{Name: "images", Site: "ufl", Roles: []string{"image-server"}},
}

func buildDemo(l *wire.Local) error {
	for _, n := range demoNodes {
		if err := l.AddNode(n); err != nil {
			return err
		}
	}
	lan := []string{"front", "compute1", "compute2", "data"}
	for i, a := range lan {
		for _, c := range lan[i+1:] {
			if err := l.Connect(a, c, "lan"); err != nil {
				return err
			}
		}
	}
	for _, a := range []string{"front", "compute1", "compute2"} {
		if err := l.Connect(a, "images", "wan"); err != nil {
			return err
		}
	}
	for _, n := range []string{"compute1", "compute2", "images"} {
		if err := l.InstallImage(wire.InstallImageParams{
			Node: n, Name: "rh72", OS: "redhat-7.2", DiskBytes: 2 * hw.GB, MemBytes: 128 * hw.MB,
		}); err != nil {
			return err
		}
	}
	return l.CreateData(wire.CreateDataParams{Node: "data", File: "dataset", Bytes: 1 * hw.GB})
}
