package core

import (
	"bytes"
	"strings"
	"testing"

	"vmgrid/internal/chunk"
	"vmgrid/internal/fault"
	"vmgrid/internal/guest"
	"vmgrid/internal/obs"
	"vmgrid/internal/placement"
	"vmgrid/internal/retry"
	"vmgrid/internal/sim"
	"vmgrid/internal/telemetry"
	"vmgrid/internal/vfs"
)

// allPlanesRun builds the testbed with every construction-time plane
// (in the given option order), replicates the registry, starts the
// monitor, the balancer and the default alert rules, and runs one
// supervised 600 s task through a host crash at 120 s and a reboot at
// 420 s. It checks that each plane saw the others and returns the
// Chrome trace and telemetry JSON bytes.
func allPlanesRun(t *testing.T, opts ...GridOption) (chrome, tel []byte) {
	t.Helper()
	g := testbed(t, opts...)
	col := g.Telemetry()
	if err := g.DefaultAlertRules(); err != nil {
		t.Fatal(err)
	}
	col.Start()
	replicate(t, g)
	mon, err := g.StartMonitor()
	if err != nil {
		t.Fatal(err)
	}
	bal, err := g.StartBalancer(BalancerConfig{
		BalancerConfig: placement.BalancerConfig{
			Interval: 5 * sim.Second, HotLoad: 1.5, ClearLoad: 0.75, Sustain: 2,
		},
		Placer: placement.LeastLoaded{},
	})
	if err != nil {
		t.Fatal(err)
	}

	// testbed attaches every node after NewGrid: each still joins the
	// grid's chunk plane.
	plane := g.ChunkPlane()
	for _, name := range g.NodeNames() {
		if got := g.Node(name).Store().ChunkPlane(); plane == nil || got != plane {
			t.Fatalf("node %s chunk plane = %p, want the grid's %p", name, got, plane)
		}
	}

	cfg := baseConfig()
	cfg.DirtyBps = 64 << 10
	s := startSession(t, g, cfg)
	sup := superviseSession(t, g, s, SupervisorConfig{CheckpointInterval: 30 * sim.Second})
	finished := false
	var res guest.TaskResult
	if err := sup.Run(s, guest.MicroTask(600), func(r guest.TaskResult) {
		res, finished = r, true
	}); err != nil {
		t.Fatal(err)
	}
	k := g.Kernel()
	victim := s.Node().Name()
	k.After(120*sim.Second, func() { _ = g.CrashNode(victim) })
	k.After(420*sim.Second, func() { _ = g.RebootNode(victim) })
	stepUntil(g, 2*sim.Hour, func() bool { return finished })
	if !finished || res.Err != nil || res.UserSeconds != 600 {
		t.Fatalf("supervised task: finished=%v err=%v user=%v", finished, res.Err, res.UserSeconds)
	}
	if st := sup.Stats(); st.Crashes != 1 || st.Recoveries != 1 {
		t.Fatalf("crashes/recoveries = %d/%d, want 1/1", st.Crashes, st.Recoveries)
	}
	sup.Stop()
	bal.Stop()
	mon.Stop()
	col.Stop()

	// The recovery froze an incident from the tracer's spans.
	var recovery bool
	for _, inc := range g.Recorder().Incidents() {
		recovery = recovery || inc.Trigger == "recovery"
	}
	if !recovery {
		t.Errorf("flight recorder froze no recovery incident (%d incidents)", len(g.Recorder().Incidents()))
	}
	// The collector scraped every plane.
	db := col.DB()
	for _, name := range []string{
		"node.load", "node.predicted_load", "session.slowdown", "lease.age",
		"gis.replica.lag", "staging.chunk.hits", "staging.chunk.misses", "staging.bytes_saved",
	} {
		if len(db.Select(name, nil)) == 0 {
			t.Errorf("collector holds no %s series", name)
		}
	}

	ts := obs.NewTraceSet()
	ts.Add("all-planes", g.Tracer())
	var cb bytes.Buffer
	if err := ts.WriteChrome(&cb); err != nil {
		t.Fatal(err)
	}
	set := telemetry.NewSet()
	set.Add("all-planes", col)
	var tb bytes.Buffer
	if err := set.WriteJSON(&tb); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), tb.Bytes()
}

// TestAllPlanesSupervisedCrashReboot runs every plane at once and
// checks that NewGrid's plane order is fixed: the same run with the
// options reversed yields byte-identical trace and telemetry exports.
func TestAllPlanesSupervisedCrashReboot(t *testing.T) {
	fwd := []GridOption{WithTracing(), WithFlightRecorder(), WithTelemetry(), WithChunkedStaging(chunk.Config{})}
	rev := []GridOption{WithChunkedStaging(chunk.Config{}), WithTelemetry(), WithFlightRecorder(), WithTracing()}
	chromeA, telA := allPlanesRun(t, fwd...)
	chromeB, telB := allPlanesRun(t, rev...)
	if !bytes.Equal(chromeA, chromeB) {
		t.Errorf("Chrome trace differs with option order (%d vs %d bytes)", len(chromeA), len(chromeB))
	}
	if !bytes.Equal(telA, telB) {
		t.Errorf("telemetry JSON differs with option order (%d vs %d bytes)", len(telA), len(telB))
	}
}

// TestRetrySeriesArePerSession: the vfs-retry-storm rule selects
// vfs.retries by name alone, so the store must hold only the
// per-session series. Four sessions each retry a few times a second
// over lossy data mounts: no single session storms, but their sum —
// the tracer's grid-wide vfs.retries counter — passes the rule's 5/s.
func TestRetrySeriesArePerSession(t *testing.T) {
	g := testbed(t, WithTracing(), WithTelemetry())
	col := g.Telemetry()
	if err := g.DefaultAlertRules(); err != nil {
		t.Fatal(err)
	}
	var files []*vfs.RemoteFile
	for i := 0; i < 4; i++ {
		s := startSession(t, g, baseConfig())
		inner, err := vfs.NewNetTransport(g.net, s.node.name, "data", g.nodes["data"].vfsrv)
		if err != nil {
			t.Fatal(err)
		}
		flaky := fault.NewFlakyTransport(g.k, inner, uint64(i+1))
		flaky.SetDropProb(0.3)
		cfg := vfs.LANConfig()
		cfg.Retry = retry.Policy{MaxAttempts: 8, Timeout: 200 * sim.Millisecond, Backoff: 10 * sim.Millisecond}
		cfg.Trace = g.tracer
		c, err := vfs.NewClient(g.k, flaky, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.dataClient = c
		files = append(files, c.Open("alice-dataset", 1<<30))
	}
	col.Start()
	k := g.Kernel()
	var off int64
	var tick func()
	tick = func() {
		for _, f := range files {
			f.Read(off, 32<<10, nil)
		}
		off += 1 << 20
		k.After(200*sim.Millisecond, tick)
	}
	start := k.Now()
	tick()
	_ = k.RunUntil(start.Add(2 * sim.Minute))
	col.Stop()

	grid := g.Tracer().Metrics().Counter("vfs.retries").Value()
	if rate := grid / k.Now().Sub(start).Seconds(); rate <= 5 {
		t.Fatalf("grid-wide retry rate %.2f/s, want > 5/s for the scenario to bite", rate)
	}
	series := col.DB().Select("vfs.retries", nil)
	if len(series) != 4 {
		t.Errorf("vfs.retries has %d series, want the 4 sessions'", len(series))
	}
	for _, s := range series {
		if !strings.HasPrefix(s.Key(), "vfs.retries{sess=") {
			t.Errorf("vfs.retries series %s is not per-session", s.Key())
		}
	}
	// No session storms on its own, so the rule must stay quiet.
	for _, f := range col.Firings() {
		if f.Rule == "vfs-retry-storm" {
			t.Errorf("vfs-retry-storm fired on %s at %.1f/s", f.Series, f.Value)
		}
	}
}
