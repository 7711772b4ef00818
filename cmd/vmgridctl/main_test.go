package main

import (
	"io"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vmgrid/internal/chunk"
	"vmgrid/internal/wire"
)

// startDaemon spins a wire server with the demo-like minimal fabric and
// returns its address.
func startDaemon(t *testing.T) string {
	t.Helper()
	srv := wire.NewServer(1)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	l := wire.NewLocal(srv)
	steps := []func() error{
		func() error {
			return l.AddNode(wire.AddNodeParams{Name: "front", Site: "s", Roles: []string{"front-end"}})
		},
		func() error {
			return l.AddNode(wire.AddNodeParams{Name: "c1", Site: "s", Roles: []string{"compute"},
				Slots: 2, DHCPPrefix: "10.0.0."})
		},
		func() error { return l.Connect("front", "c1", "lan") },
		func() error {
			return l.InstallImage(wire.InstallImageParams{Node: "c1", Name: "rh72", OS: "rh",
				DiskBytes: 1 << 30, MemBytes: 128 << 20})
		},
		func() error { return l.CreateData(wire.CreateDataParams{Node: "c1", File: "d", Bytes: 1 << 20}) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("setup step %d: %v", i, err)
		}
	}
	return srv.Addr()
}

func ctl(t *testing.T, addr string, args ...string) error {
	t.Helper()
	full := append([]string{"-addr", addr}, args...)
	return run(full)
}

func TestCtlCommandFlow(t *testing.T) {
	addr := startDaemon(t)
	if err := ctl(t, addr, "ping"); err != nil {
		t.Fatal(err)
	}
	if err := ctl(t, addr, "status"); err != nil {
		t.Fatal(err)
	}
	if err := ctl(t, addr, "session", "-user", "u", "-front", "front", "-image", "rh72"); err != nil {
		t.Fatal(err)
	}
	if err := ctl(t, addr, "run", "-session", "sess-1-u", "-cpu", "5"); err != nil {
		t.Fatal(err)
	}
	if err := ctl(t, addr, "usage", "-session", "sess-1-u"); err != nil {
		t.Fatal(err)
	}
	if err := ctl(t, addr, "hibernate", "-session", "sess-1-u"); err != nil {
		t.Fatal(err)
	}
	if err := ctl(t, addr, "wake", "-session", "sess-1-u"); err != nil {
		t.Fatal(err)
	}
	if err := ctl(t, addr, "query", "-kind", "vm"); err != nil {
		t.Fatal(err)
	}
	if err := ctl(t, addr, "shutdown", "-session", "sess-1-u"); err != nil {
		t.Fatal(err)
	}
}

func TestCtlBuildsTopology(t *testing.T) {
	addr := startDaemon(t)
	if err := ctl(t, addr, "add-node", "-name", "x", "-site", "s", "-roles", "compute,image-server", "-slots", "1"); err != nil {
		t.Fatal(err)
	}
	if err := ctl(t, addr, "connect", "-a", "x", "-b", "c1", "-kind", "wan"); err != nil {
		t.Fatal(err)
	}
	if err := ctl(t, addr, "install", "-node", "x", "-image", "rh71"); err != nil {
		t.Fatal(err)
	}
	if err := ctl(t, addr, "mkdata", "-node", "x", "-file", "f", "-bytes", "1024"); err != nil {
		t.Fatal(err)
	}
}

func TestCtlErrors(t *testing.T) {
	addr := startDaemon(t)
	if err := ctl(t, addr); err == nil || !strings.Contains(err.Error(), "missing command") {
		t.Errorf("no command: %v", err)
	}
	if err := ctl(t, addr, "explode"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Errorf("unknown command: %v", err)
	}
	if err := ctl(t, addr, "run", "-session", "ghost", "-cpu", "1"); err == nil {
		t.Error("run on ghost session accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:1", "ping"}); err == nil {
		t.Error("dial to dead address succeeded")
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" a, b ,,c ")
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("splitList = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitList = %v", got)
		}
	}
	if splitList("") != nil {
		t.Error("empty list not nil")
	}
}

// TestCtlObservability: metrics, spans, top, and alerts round-trip over
// a live TCP daemon with a real session driving data into them.
func TestCtlObservability(t *testing.T) {
	addr := startDaemon(t)
	if err := ctl(t, addr, "session", "-user", "u", "-front", "front", "-image", "rh72"); err != nil {
		t.Fatal(err)
	}
	if err := ctl(t, addr, "run", "-session", "sess-1-u", "-cpu", "5"); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"metrics"},
		{"spans"},
		{"spans", "-cat", "phase"},
		{"top"},
		{"alerts"},
	} {
		if err := ctl(t, addr, args...); err != nil {
			t.Errorf("ctl %v: %v", args, err)
		}
	}
}

// TestCtlReplicatedTop: a daemon running a replicated registry surfaces
// the replica rows — with lag once a replica is partitioned away from a
// write — over live TCP, and the split-brain rule is installed.
func TestCtlReplicatedTop(t *testing.T) {
	srv := wire.NewServer(1)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	l := wire.NewLocal(srv)
	for _, n := range []string{"g1", "g2"} {
		if err := l.AddNode(wire.AddNodeParams{Name: n, Site: "s", Roles: []string{"data-server"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AddNode(wire.AddNodeParams{Name: "c1", Site: "s", Roles: []string{"compute"},
		Slots: 1, DHCPPrefix: "10.0.0."}); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"c1", "g1"}, {"c1", "g2"}, {"g1", "g2"}} {
		if err := l.Connect(pair[0], pair[1], "lan"); err != nil {
			t.Fatal(err)
		}
	}
	grid := srv.Grid()
	if _, err := grid.EnableGISReplication([]string{"c1", "g1", "g2"}, 0); err != nil {
		t.Fatal(err)
	}

	c, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	top, err := c.Top()
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Replicas) != 3 {
		t.Fatalf("replica rows = %d, want 3: %+v", len(top.Replicas), top.Replicas)
	}
	for _, r := range top.Replicas {
		if r.LagSec != 0 {
			t.Fatalf("replica %s lag = %.1fs before any partition", r.Node, r.LagSec)
		}
	}

	// Partition g2, advance virtual time (watch frames drive the clock),
	// and write: the majority takes the record, g2 falls behind.
	if err := grid.Net().SetNodeUp("g2", false); err != nil {
		t.Fatal(err)
	}
	if err := ctl(t, srv.Addr(), "top", "-n", "3", "-every", "2"); err != nil {
		t.Fatal(err)
	}
	if err := grid.Info().RegisterFrom("c1", "host", "late-arrival", nil, 0); err != nil {
		t.Fatal(err)
	}
	top, err = c.Top()
	if err != nil {
		t.Fatal(err)
	}
	lagged := 0.0
	for _, r := range top.Replicas {
		if r.Node == "g2" {
			lagged = r.LagSec
		}
	}
	if lagged <= 0 {
		t.Fatalf("partitioned replica shows no lag: %+v", top.Replicas)
	}

	alerts, err := c.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range alerts.Rules {
		if r.Name == "split-brain-risk" {
			found = true
		}
	}
	if !found {
		t.Fatalf("split-brain-risk rule not installed: %+v", alerts.Rules)
	}
}

// TestCtlTopStreams: multi-frame top uses the watch op and renders every
// frame; frames advance virtual time on an idle grid.
func TestCtlTopStreams(t *testing.T) {
	addr := startDaemon(t)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before, err := c.Top()
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl(t, addr, "top", "-n", "3", "-every", "2"); err != nil {
		t.Fatal(err)
	}
	after, err := c.Top()
	if err != nil {
		t.Fatal(err)
	}
	if after.VirtualSec < before.VirtualSec+4 {
		t.Fatalf("watch did not advance virtual time: %.1f -> %.1f",
			before.VirtualSec, after.VirtualSec)
	}
	if len(after.Nodes) == 0 {
		t.Fatal("top snapshot lost the nodes")
	}
}

// TestCtlWatchDrain: closing the daemon mid-watch errors out the stream
// instead of hanging the client.
func TestCtlWatchDrain(t *testing.T) {
	srv := wire.NewServer(1)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	l := wire.NewLocal(srv)
	if err := l.AddNode(wire.AddNodeParams{Name: "front", Site: "s", Roles: []string{"front-end"}}); err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var frames atomic.Int64
	firstFrame := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		errCh <- c.Watch(1_000_000, 1, func(wire.TopInfo) error {
			if frames.Add(1) == 1 {
				close(firstFrame)
			}
			return nil
		})
	}()
	// Let a frame land, then drain the server under the stream.
	select {
	case <-firstFrame:
	case <-time.After(time.Second):
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("watch survived server drain")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch hung through server drain")
	}
	if frames.Load() == 0 {
		t.Fatal("no frames before drain")
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	fn()
	_ = w.Close()
	os.Stdout = old
	out := <-done
	_ = r.Close()
	return out
}

// TestCtlTopStagingLine: with the chunk plane enabled, staged session
// creation drives dedup accounting that surfaces both in the Top wire
// snapshot and in the rendered `top` output — and with the plane off,
// the staging section stays absent.
func TestCtlTopStagingLine(t *testing.T) {
	// Plane off: no staging block at all.
	plain := startDaemon(t)
	c0, err := wire.Dial(plain)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	top0, err := c0.Top()
	if err != nil {
		t.Fatal(err)
	}
	if top0.Staging != nil {
		t.Fatalf("staging block present without a chunk plane: %+v", top0.Staging)
	}

	srv := wire.NewServer(1)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	srv.Grid().EnableChunkedStaging(chunk.Config{})
	l := wire.NewLocal(srv)
	steps := []func() error{
		func() error {
			return l.AddNode(wire.AddNodeParams{Name: "front", Site: "s", Roles: []string{"front-end"}})
		},
		func() error {
			return l.AddNode(wire.AddNodeParams{Name: "c1", Site: "s", Roles: []string{"compute"},
				Slots: 2, DHCPPrefix: "10.0.0."})
		},
		func() error {
			return l.AddNode(wire.AddNodeParams{Name: "img", Site: "s", Roles: []string{"image-server"}})
		},
		func() error { return l.Connect("front", "c1", "lan") },
		func() error { return l.Connect("front", "img", "lan") },
		func() error { return l.Connect("c1", "img", "lan") },
		func() error {
			return l.InstallImage(wire.InstallImageParams{Node: "img", Name: "rh72", OS: "rh",
				DiskBytes: 256 << 20, MemBytes: 64 << 20})
		},
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("setup step %d: %v", i, err)
		}
	}
	addr := srv.Addr()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Cold staged create: every chunk misses.
	if err := ctl(t, addr, "session", "-user", "u", "-front", "front", "-image", "rh72",
		"-access", "staged"); err != nil {
		t.Fatal(err)
	}
	top1, err := c.Top()
	if err != nil {
		t.Fatal(err)
	}
	if top1.Staging == nil {
		t.Fatal("no staging block with the chunk plane enabled")
	}
	if top1.Staging.ChunkMisses == 0 {
		t.Errorf("cold staged create recorded no chunk misses: %+v", top1.Staging)
	}

	// Shut down and re-create: the content survives the files, so the
	// second stage hits.
	if err := ctl(t, addr, "shutdown", "-session", "sess-1-u"); err != nil {
		t.Fatal(err)
	}
	if err := ctl(t, addr, "session", "-user", "u", "-front", "front", "-image", "rh72",
		"-access", "staged"); err != nil {
		t.Fatal(err)
	}
	top2, err := c.Top()
	if err != nil {
		t.Fatal(err)
	}
	if top2.Staging.ChunkHits == 0 || top2.Staging.BytesSaved == 0 {
		t.Errorf("warm staged create recorded no dedup: %+v", top2.Staging)
	}
	if top2.Staging.HitRate <= 0 {
		t.Errorf("hit rate = %v after a warm create", top2.Staging.HitRate)
	}

	out := captureStdout(t, func() {
		if err := ctl(t, addr, "top"); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "staging cache:") {
		t.Errorf("rendered top lacks the staging cache line:\n%s", out)
	}
	for _, frag := range []string{"hits=", "misses=", "hit-rate=", "saved="} {
		if !strings.Contains(out, frag) {
			t.Errorf("staging line lacks %q:\n%s", frag, out)
		}
	}
}
