package main

import (
	"testing"
	"time"

	"vmgrid/internal/chunk"
	"vmgrid/internal/core"
	"vmgrid/internal/wire"
)

func TestBuildDemoFabric(t *testing.T) {
	srv := wire.NewServer(1)
	if err := buildDemo(srv); err != nil {
		t.Fatal(err)
	}
	l := wire.NewLocal(srv)
	st, err := l.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 5 {
		t.Fatalf("demo fabric has %d nodes, want 5", len(st.Nodes))
	}

	// The demo fabric supports a full session immediately.
	info, err := l.NewSession(wire.SessionParams{
		User: "demo", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
		DataNode: "data", DataFile: "dataset",
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "running" {
		t.Errorf("state = %q", info.State)
	}
}

// TestChunkedDemoReportsStagingStats mirrors the README walkthrough:
// a -chunked daemon's demo fabric records chunk traffic on a staged
// session and surfaces it through the top op.
func TestChunkedDemoReportsStagingStats(t *testing.T) {
	srv := wire.NewServer(4, core.WithChunkedStaging(chunk.Config{}))
	if err := buildDemo(srv); err != nil {
		t.Fatal(err)
	}
	l := wire.NewLocal(srv)
	// The demo pre-installs rh72 on every compute node, so installing it
	// already minted each chunk into the node's cache: a staged session
	// dedups completely against local content and moves nothing.
	if _, err := l.NewSession(wire.SessionParams{
		User: "demo", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "staged",
	}); err != nil {
		t.Fatal(err)
	}
	top, err := l.Top()
	if err != nil {
		t.Fatal(err)
	}
	if top.Staging == nil {
		t.Fatal("chunked daemon reports no staging stats")
	}
	if top.Staging.ChunkHits == 0 || top.Staging.BytesSaved == 0 {
		t.Errorf("staged session on a pre-imaged node saved nothing: %+v", top.Staging)
	}
	if top.Staging.ChunkMisses != 0 {
		t.Errorf("pre-imaged node missed %d chunks staging its own image",
			top.Staging.ChunkMisses)
	}
}

func TestDemoFabricServesTCP(t *testing.T) {
	srv := wire.NewServer(2)
	if err := buildDemo(srv); err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	futures, err := c.Query("vm-future")
	if err != nil {
		t.Fatal(err)
	}
	if len(futures) != 2 {
		t.Errorf("demo futures = %d", len(futures))
	}
}

// TestGracefulDrain is the daemon's shutdown contract: the SIGTERM path
// calls srv.Close, which must complete promptly even with clients still
// connected and idle — their requests in flight finish, their parked
// readers abort — so the daemon never wedges on shutdown.
func TestGracefulDrain(t *testing.T) {
	srv := wire.NewServer(3)
	if err := buildDemo(srv); err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A full session round trip leaves real state behind the connection.
	if _, err := c.NewSession(wire.SessionParams{
		User: "drain", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung with an idle client connected")
	}
	if err := c.Ping(); err == nil {
		t.Error("server still answering after drain")
	}
}
