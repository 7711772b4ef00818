package wire

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// startServer spins a server on a free port and returns a connected
// client, tearing both down with the test.
func startServer(t *testing.T) *Client {
	t.Helper()
	srv := NewServer(1)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// buildFabric assembles the standard two-site deployment over the wire.
func buildFabric(t *testing.T, c *Client) {
	t.Helper()
	if err := buildDemo(c.api); err != nil {
		t.Fatal(err)
	}
}

// buildDemo assembles the standard two-site deployment through a.
func buildDemo(a api) error {
	nodes := []AddNodeParams{
		{Name: "front", Site: "nwu", Roles: []string{"front-end"}},
		{Name: "compute1", Site: "nwu", Roles: []string{"compute"}, Slots: 2, DHCPPrefix: "10.1.0."},
		{Name: "compute2", Site: "nwu", Roles: []string{"compute"}, Slots: 2, DHCPPrefix: "10.1.1."},
		{Name: "data", Site: "nwu", Roles: []string{"data-server"}},
		{Name: "images", Site: "ufl", Roles: []string{"image-server"}},
	}
	for _, n := range nodes {
		if err := a.AddNode(n); err != nil {
			return err
		}
	}
	lan := []string{"front", "compute1", "compute2", "data"}
	for i, x := range lan {
		for _, y := range lan[i+1:] {
			if err := a.Connect(x, y, "lan"); err != nil {
				return err
			}
		}
	}
	for _, x := range []string{"front", "compute1", "compute2"} {
		if err := a.Connect(x, "images", "wan"); err != nil {
			return err
		}
	}
	img := InstallImageParams{Name: "rh72", OS: "redhat-7.2", DiskBytes: 2 << 30, MemBytes: 128 << 20}
	for _, node := range []string{"compute1", "compute2", "images"} {
		img.Node = node
		if err := a.InstallImage(img); err != nil {
			return err
		}
	}
	return a.CreateData(CreateDataParams{Node: "data", File: "dataset", Bytes: 1 << 30})
}

func TestPing(t *testing.T) {
	c := startServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndSessionOverTCP(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)

	info, err := c.NewSession(SessionParams{
		User: "alice", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
		DataNode: "data", DataFile: "dataset",
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "running" {
		t.Errorf("state = %q", info.State)
	}
	if info.Addr == "" {
		t.Error("no address")
	}
	if info.StartupSec < 5 || info.StartupSec > 30 {
		t.Errorf("startup = %.1fs, want the Table 2 restore band", info.StartupSec)
	}
	if info.Events["ready"] <= 0 {
		t.Error("missing ready event")
	}

	res, err := c.Run(RunParams{
		Session: info.Name, Name: "job", CPUSeconds: 30,
		Reads: 50, ReadBytes: 10 << 20, Mount: "data",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UserSec != 30 || res.Reads != 50 {
		t.Errorf("run result %+v", res)
	}
	if res.ElapsedSec <= 30 {
		t.Errorf("elapsed %.2f implausibly fast", res.ElapsedSec)
	}

	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 5 || len(st.Sessions) != 1 {
		t.Errorf("status: %d nodes, %d sessions", len(st.Nodes), len(st.Sessions))
	}
	if st.VirtualSec <= 0 {
		t.Error("virtual clock did not advance")
	}

	if err := c.Shutdown(info.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(RunParams{Session: info.Name, Name: "x", CPUSeconds: 1}); err == nil {
		t.Error("run on dead session accepted")
	}
}

// TestRunRejectsOversizedWorkload: a run request above any Max* bound
// fails fast with a plain error, before the daemon schedules any work,
// and the session stays usable.
func TestRunRejectsOversizedWorkload(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)
	info, err := c.NewSession(SessionParams{
		User: "alice", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
		DataNode: "data", DataFile: "dataset",
	})
	if err != nil {
		t.Fatal(err)
	}
	base := RunParams{Session: info.Name, Name: "huge", CPUSeconds: 1, Mount: "data"}
	for _, tc := range []struct {
		field string
		edit  func(*RunParams)
	}{
		{"reads", func(p *RunParams) { p.Reads, p.ReadBytes = 1<<40, 1<<40 }},
		{"readBytes", func(p *RunParams) { p.Reads, p.ReadBytes = 1, MaxRunReadBytes+1 }},
		{"rootOps", func(p *RunParams) { p.RootOps = MaxRunRootOps + 1 }},
		{"rootBytes", func(p *RunParams) { p.RootOps, p.RootBytes = 1, MaxRunRootBytes+1 }},
		{"cpuSeconds", func(p *RunParams) { p.CPUSeconds = MaxRunCPUSeconds + 1 }},
	} {
		p := base
		tc.edit(&p)
		start := time.Now()
		_, err := c.Run(p)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err = %v, want a bound error naming the field", tc.field, err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("%s: rejection took %v", tc.field, elapsed)
		}
	}
	res, err := c.Run(RunParams{
		Session: info.Name, Name: "job", CPUSeconds: 30,
		Reads: 50, ReadBytes: 10 << 20, Mount: "data",
	})
	if err != nil {
		t.Fatalf("normal job after rejections: %v", err)
	}
	if res.UserSec != 30 || res.Reads != 50 {
		t.Errorf("run result %+v", res)
	}
}

// TestWatchCannotOverflowClock: no sequence of bounded requests moves
// the kernel clock near int64 overflow. A watch spaced beyond
// MaxWatchEverySec once jumped the clock to seconds short of overflow,
// and the next run scheduled an event "before now" and crashed the
// daemon. Now that watch is refused before any frame, frames stop at
// the MaxVirtualSec horizon, and so does a run that would cross it.
func TestWatchCannotOverflowClock(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)
	info, err := c.NewSession(SessionParams{
		User: "alice", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
		DataNode: "data", DataFile: "dataset",
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	count := func(TopInfo) error { frames++; return nil }
	if err := c.Watch(2, 9223372036840, count); err == nil || !strings.Contains(err.Error(), "everySec") {
		t.Errorf("watch at 9223372036840 s spacing: err = %v, want a bound error naming everySec", err)
	}
	if frames != 0 {
		t.Errorf("refused watch sent %d frames", frames)
	}
	run := func(cpu float64) error {
		_, err := c.Run(RunParams{Session: info.Name, Name: "j", CPUSeconds: cpu})
		return err
	}
	if err := run(5); err != nil {
		t.Fatalf("run after the refused watch: %v", err)
	}

	// Frames at the widest spacing run up to the horizon, then one error
	// frame ends the stream.
	frames = 0
	err = c.Watch(MaxVirtualSec/MaxWatchEverySec+2, MaxWatchEverySec, count)
	if err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("watch across the horizon: err = %v, want a horizon error", err)
	}
	if frames < MaxVirtualSec/MaxWatchEverySec-1 {
		t.Errorf("watch stopped after %d frames, before the horizon", frames)
	}
	// Short of the horizon a run still completes; one that would cross
	// it fails instead of moving the clock past it.
	if err := run(5); err != nil {
		t.Fatalf("run below the horizon: %v", err)
	}
	if err := run(MaxRunCPUSeconds); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("run across the horizon: err = %v, want a horizon error", err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.VirtualSec > MaxVirtualSec {
		t.Errorf("clock at %.0f s, past the %d s horizon", st.VirtualSec, MaxVirtualSec)
	}
}

func TestPlacementParamsOverTCP(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)
	hinted, err := c.NewSession(SessionParams{
		User: "alice", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
		NodeHint: "compute2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if hinted.Node != "compute2" {
		t.Errorf("hinted session on %q, want compute2", hinted.Node)
	}
	placed, err := c.NewSession(SessionParams{
		User: "bob", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
		Place: "least-loaded",
	})
	if err != nil {
		t.Fatal(err)
	}
	if placed.Node == "" {
		t.Error("placed session reports no node")
	}
	if _, err := c.NewSession(SessionParams{
		User: "eve", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
		Place: "warp-speed",
	}); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("unknown policy error = %v", err)
	}
}

func TestMigrateOverTCP(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)
	info, err := c.NewSession(SessionParams{
		User: "bob", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
	})
	if err != nil {
		t.Fatal(err)
	}
	target := "compute2"
	if info.Node == "compute2" {
		target = "compute1"
	}
	moved, err := c.Migrate(info.Name, target)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Node != target {
		t.Errorf("node after migrate = %q, want %q", moved.Node, target)
	}
	if moved.State != "running" {
		t.Errorf("state = %q", moved.State)
	}
}

func TestHibernateWakeOverTCP(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)
	info, err := c.NewSession(SessionParams{
		User: "carol", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Hibernate(info.Name)
	if err != nil {
		t.Fatal(err)
	}
	if h.State != "hibernated" {
		t.Errorf("state = %q", h.State)
	}
	w, err := c.Wake(info.Name)
	if err != nil {
		t.Fatal(err)
	}
	if w.State != "running" {
		t.Errorf("state = %q", w.State)
	}
}

func TestQueryOverTCP(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)
	futures, err := c.Query("vm-future")
	if err != nil {
		t.Fatal(err)
	}
	if len(futures) != 2 {
		t.Errorf("futures = %d, want 2", len(futures))
	}
	hosts, err := c.Query("host")
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 5 {
		t.Errorf("hosts = %d", len(hosts))
	}
}

func TestServerErrors(t *testing.T) {
	c := startServer(t)
	if err := c.Call("frobnicate", nil, nil); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("unknown op error = %v", err)
	}
	if err := c.AddNode(AddNodeParams{Name: "x", Roles: []string{"warlock"}}); err == nil {
		t.Error("unknown role accepted")
	}
	if err := c.Connect("a", "b", "lan"); err == nil {
		t.Error("connect unknown nodes accepted")
	}
	if _, err := c.NewSession(SessionParams{User: "u", FrontEnd: "nope", Image: "i"}); err == nil {
		t.Error("session with unknown front end accepted")
	}
	if _, err := c.NewSession(SessionParams{User: "u", FrontEnd: "x", Image: "i", Mode: "warp"}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := NewServer(1)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				if err := c.Ping(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestUsageOverTCP(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)
	info, err := c.NewSession(SessionParams{
		User: "dora", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
		DataNode: "data", DataFile: "dataset",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(RunParams{Session: info.Name, Name: "j", CPUSeconds: 10}); err != nil {
		t.Fatal(err)
	}
	u, err := c.Usage(info.Name)
	if err != nil {
		t.Fatal(err)
	}
	if u.GuestUserSeconds < 10 {
		t.Errorf("guest work = %v", u.GuestUserSeconds)
	}
	if u.CPUSeconds <= u.GuestUserSeconds {
		t.Errorf("cpu %v not above guest work %v", u.CPUSeconds, u.GuestUserSeconds)
	}
	if u.Efficiency <= 0 || u.Efficiency >= 1 {
		t.Errorf("efficiency = %v", u.Efficiency)
	}
	if _, err := c.Usage("ghost"); err == nil {
		t.Error("usage of unknown session accepted")
	}
}
