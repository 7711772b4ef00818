package core

import (
	"errors"
	"testing"

	"vmgrid/internal/guest"
	"vmgrid/internal/hw"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
	"vmgrid/internal/vmm"
)

// testbed builds the paper's deployment: a front end, two compute nodes
// and a data server on one site's LAN, and an image server across a WAN
// (Northwestern / Florida in Table 1's caption).
func testbed(t testing.TB) *Grid {
	t.Helper()
	g := NewGrid(1)
	add := func(cfg NodeConfig) *Node {
		t.Helper()
		n, err := g.AddNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	add(NodeConfig{Name: "front", Site: "nwu", Role: RoleFrontEnd})
	add(NodeConfig{Name: "compute1", Site: "nwu", Role: RoleCompute, Slots: 2, DHCPPrefix: "10.1.0."})
	add(NodeConfig{Name: "compute2", Site: "nwu", Role: RoleCompute, Slots: 2, DHCPPrefix: "10.1.1."})
	add(NodeConfig{Name: "data", Site: "nwu", Role: RoleDataServer})
	add(NodeConfig{Name: "images", Site: "ufl", Role: RoleImageServer})
	if err := g.Net().BuildLAN("front", "compute1", "compute2", "data"); err != nil {
		t.Fatal(err)
	}
	if err := g.Net().ConnectWAN("front", "images"); err != nil {
		t.Fatal(err)
	}
	if err := g.Net().ConnectWAN("compute1", "images"); err != nil {
		t.Fatal(err)
	}
	if err := g.Net().ConnectWAN("compute2", "images"); err != nil {
		t.Fatal(err)
	}

	img := storage.ImageInfo{Name: "rh72", OS: "redhat-7.2", DiskBytes: 2 * hw.GB, MemBytes: 128 * hw.MB}
	for _, n := range []string{"compute1", "compute2", "images"} {
		if err := g.Node(n).InstallImage(img); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Node("data").CreateUserData("alice-dataset", 1*hw.GB); err != nil {
		t.Fatal(err)
	}
	return g
}

func baseConfig() SessionConfig {
	return SessionConfig{
		User:     "alice",
		FrontEnd: "front",
		Image:    "rh72",
		Mode:     vmm.WarmRestore,
		Disk:     NonPersistent,
		Access:   AccessLocal,
		DataNode: "data",
		DataFile: "alice-dataset",
	}
}

func startSession(t *testing.T, g *Grid, cfg SessionConfig) *Session {
	t.Helper()
	var sess *Session
	var serr error
	ready := false
	s, err := g.CreateSession(cfg, func(s *Session, err error) {
		sess, serr = s, err
		ready = true
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = s
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(30 * sim.Minute))
	if !ready {
		t.Fatal("session never became ready")
	}
	if serr != nil {
		t.Fatalf("session error: %v", serr)
	}
	return sess
}

func TestSessionLifecycleSteps(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())

	for _, step := range []string{"submitted", "future-selected", "image-located",
		"vm-starting", "vm-running", "addr-assigned", "data-attached", "ready"} {
		if s.EventAt(step) < 0 {
			t.Errorf("step %q never happened; events: %v", step, s.Events())
		}
	}
	if s.State() != StateRunning {
		t.Errorf("state = %q", s.State())
	}
	if s.Addr() == "" {
		t.Error("no address assigned despite site DHCP")
	}
	if s.LocalUser() == "" {
		t.Error("no logical-account mapping")
	}
	if s.Console() == "" {
		t.Error("no console handle")
	}
	if s.VM().State() != vmm.StateRunning {
		t.Errorf("VM state = %v", s.VM().State())
	}
	// The VM is registered in the information service.
	if _, err := g.Info().Lookup("vm", s.Name()); err != nil {
		t.Errorf("VM not registered: %v", err)
	}
}

func TestRestoreSessionStartupBand(t *testing.T) {
	// Table 2: restore + non-persistent + DiskFS ≈ 12 s (9.6-25).
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	elapsed := s.EventAt("ready").Sub(s.EventAt("submitted")).Seconds()
	if elapsed < 6 || elapsed > 26 {
		t.Errorf("restore startup = %.1fs, want Table 2 band ~10-25s", elapsed)
	}
}

func TestRebootSessionStartupBand(t *testing.T) {
	// Table 2: reboot + non-persistent + DiskFS ≈ 69 s (64-86).
	g := testbed(t)
	cfg := baseConfig()
	cfg.Mode = vmm.ColdBoot
	s := startSession(t, g, cfg)
	elapsed := s.EventAt("ready").Sub(s.EventAt("submitted")).Seconds()
	if elapsed < 55 || elapsed > 90 {
		t.Errorf("reboot startup = %.1fs, want Table 2 band ~64-86s", elapsed)
	}
}

func TestPersistentCopyDominatesStartup(t *testing.T) {
	// Table 2: the persistent rows are minutes, dominated by the copy.
	g := testbed(t)
	cfg := baseConfig()
	cfg.Disk = Persistent
	s := startSession(t, g, cfg)
	elapsed := s.EventAt("ready").Sub(s.EventAt("submitted")).Seconds()
	if elapsed < 150 {
		t.Errorf("persistent startup = %.1fs, want minutes (copy-dominated)", elapsed)
	}
	// The private copies exist on the node.
	if !s.Node().Store().Has(s.Name() + ".disk") {
		t.Error("persistent disk copy missing")
	}
}

func TestLoopbackSlowerThanLocal(t *testing.T) {
	g1 := testbed(t)
	local := startSession(t, g1, baseConfig())
	localTime := local.EventAt("ready").Sub(local.EventAt("submitted"))

	g2 := testbed(t)
	cfg := baseConfig()
	cfg.Access = AccessLoopback
	loop := startSession(t, g2, cfg)
	loopTime := loop.EventAt("ready").Sub(loop.EventAt("submitted"))

	if loopTime <= localTime {
		t.Errorf("LoopbackNFS (%v) not slower than DiskFS (%v)", loopTime, localTime)
	}
	// Still in the paper's band: restore over loopback NFS ≈ 23-44 s.
	if loopTime.Seconds() > 60 {
		t.Errorf("LoopbackNFS restore = %.1fs, way over Table 2", loopTime.Seconds())
	}
}

// testbedRemoteImages is testbed but with images only on the UFL image
// server, forcing the cross-domain paths.
func testbedRemoteImages(t *testing.T) *Grid {
	t.Helper()
	g := NewGrid(1)
	add := func(cfg NodeConfig) {
		t.Helper()
		if _, err := g.AddNode(cfg); err != nil {
			t.Fatal(err)
		}
	}
	add(NodeConfig{Name: "front", Site: "nwu", Role: RoleFrontEnd})
	add(NodeConfig{Name: "compute1", Site: "nwu", Role: RoleCompute, Slots: 2, DHCPPrefix: "10.1.0."})
	add(NodeConfig{Name: "data", Site: "nwu", Role: RoleDataServer})
	add(NodeConfig{Name: "images", Site: "ufl", Role: RoleImageServer})
	if err := g.Net().BuildLAN("front", "compute1", "data"); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"front", "compute1"} {
		if err := g.Net().ConnectWAN(n, "images"); err != nil {
			t.Fatal(err)
		}
	}
	img := storage.ImageInfo{Name: "rh72", OS: "redhat-7.2", DiskBytes: 2 * hw.GB, MemBytes: 128 * hw.MB}
	if err := g.Node("images").InstallImage(img); err != nil {
		t.Fatal(err)
	}
	if err := g.Node("data").CreateUserData("alice-dataset", 1*hw.GB); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOnDemandSessionFromRemoteImageServer(t *testing.T) {
	g := testbedRemoteImages(t)
	cfg := baseConfig()
	cfg.Access = AccessOnDemand
	s := startSession(t, g, cfg)
	if s.ImageServer() != "images" {
		t.Errorf("image server = %q, want images", s.ImageServer())
	}
	elapsed := s.EventAt("ready").Sub(s.EventAt("submitted")).Seconds()
	// On-demand restore over the WAN moves ~the memory image working
	// set, not the 2 GB disk: minutes would mean staging leaked in.
	if elapsed > 120 {
		t.Errorf("on-demand startup = %.1fs; should be far below whole-image staging", elapsed)
	}
}

func TestStagedSessionMovesWholeImage(t *testing.T) {
	g := testbedRemoteImages(t)
	cfg := baseConfig()
	cfg.Access = AccessStaged
	s := startSession(t, g, cfg)
	// 2 GB + 128 MB over a 5 MB/s WAN ≥ 400 s.
	elapsed := s.EventAt("ready").Sub(s.EventAt("submitted")).Seconds()
	if elapsed < 400 {
		t.Errorf("staged startup = %.1fs, must include the whole-image transfer", elapsed)
	}
	if !s.Node().Store().Has(s.Name() + ".disk") {
		t.Error("staged disk missing on compute node")
	}
}

func TestSessionRunsWorkload(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	var res guest.TaskResult
	if err := s.Run(guest.MicroTask(5), func(r guest.TaskResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(sim.Minute))
	if res.UserSeconds != 5 {
		t.Fatalf("workload did not complete: %+v", res)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
}

func TestSessionDataMountReachesDataServer(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	w := guest.Workload{
		Name: "reader", CPUSeconds: 10,
		Reads: 100, ReadBytes: 10 << 20, Mount: "data",
	}
	var res guest.TaskResult
	if err := s.Run(w, func(r guest.TaskResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(10 * sim.Minute))
	if res.Reads != 100 {
		t.Fatalf("reads = %d", res.Reads)
	}
	if g.Node("data").VFSServer().Ops() == 0 {
		t.Error("data server saw no RPCs; mount not actually remote")
	}
}

func TestShutdownCleansUp(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	node := s.Node()
	slotsBefore := node.Slots()
	addr := s.Addr()
	s.Shutdown()
	if s.State() != StateDead {
		t.Errorf("state = %q", s.State())
	}
	if node.Slots() != slotsBefore+1 {
		t.Errorf("slot not released: %d -> %d", slotsBefore, node.Slots())
	}
	if node.Store().Has(s.Name() + ".cow") {
		t.Error("COW diff not discarded")
	}
	if _, err := g.Info().Lookup("vm", s.Name()); err == nil {
		t.Error("VM still registered after shutdown")
	}
	// The address is reusable.
	if addr != "" {
		if a, err := node.dhcp.Lease("probe"); err != nil || a != addr {
			t.Errorf("address not recycled: %v %v", a, err)
		}
	}
	s.Shutdown() // idempotent
}

func TestHibernateAndWake(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	var res guest.TaskResult
	finished := false
	if err := s.Run(guest.MicroTask(60), func(r guest.TaskResult) { res = r; finished = true }); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(20 * sim.Second))

	hibernated := false
	if err := s.Hibernate(func(err error) {
		if err != nil {
			t.Errorf("hibernate: %v", err)
		}
		hibernated = true
	}); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(5 * sim.Minute))
	if !hibernated || s.State() != StateHibernated {
		t.Fatalf("hibernate failed: state %q", s.State())
	}
	if finished {
		t.Fatal("task ran to completion while hibernated")
	}

	if err := s.Wake(nil); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(10 * sim.Minute))
	if !finished {
		t.Fatal("task never finished after wake")
	}
	if res.UserSeconds != 60 {
		t.Errorf("UserSeconds = %v", res.UserSeconds)
	}
}

func TestMigrationPreservesComputation(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	firstNode := s.Node().Name()

	var res guest.TaskResult
	finished := false
	if err := s.Run(guest.MicroTask(120), func(r guest.TaskResult) { res = r; finished = true }); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(30 * sim.Second))

	target := "compute2"
	if firstNode == "compute2" {
		target = "compute1"
	}
	migrated := false
	if err := s.Migrate(target, func(err error) {
		if err != nil {
			t.Errorf("migrate: %v", err)
		}
		migrated = true
	}); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(30 * sim.Minute))
	if !migrated {
		t.Fatal("migration never completed")
	}
	if s.Node().Name() != target {
		t.Errorf("session on %s, want %s", s.Node().Name(), target)
	}
	if !finished {
		_ = g.Kernel().RunUntil(g.Kernel().Now().Add(30 * sim.Minute))
	}
	if !finished {
		t.Fatal("task never finished after migration")
	}
	if res.UserSeconds != 120 {
		t.Errorf("UserSeconds = %v (work lost in flight?)", res.UserSeconds)
	}
	// Old node's session files are gone; registry points at the target.
	e, err := g.Info().Lookup("vm", s.Name())
	if err != nil {
		t.Fatal(err)
	}
	if e.Str("host") != target {
		t.Errorf("registry host = %q", e.Str("host"))
	}
}

func TestMigrationGuards(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	if err := s.Migrate("front", nil); err == nil {
		t.Error("migrate to non-compute node accepted")
	}
	if err := s.Migrate("ghost", nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("migrate to unknown node = %v", err)
	}
	s.Shutdown()
	if err := s.Migrate("compute2", nil); !errors.Is(err, ErrBadSession) {
		t.Errorf("migrate dead session = %v", err)
	}
}

func TestSessionValidation(t *testing.T) {
	g := testbed(t)
	bad := []SessionConfig{
		{},
		{User: "a", FrontEnd: "front"}, // no image
		{User: "a", FrontEnd: "ghost", Image: "rh72", Mode: vmm.ColdBoot, Disk: NonPersistent, Access: AccessLocal},                   // bad front end
		{User: "a", FrontEnd: "front", Image: "rh72", Disk: NonPersistent, Access: AccessLocal},                                       // no mode
		{User: "a", FrontEnd: "front", Image: "rh72", Mode: vmm.ColdBoot, Access: AccessLocal},                                        // no policy
		{User: "a", FrontEnd: "front", Image: "rh72", Mode: vmm.ColdBoot, Disk: NonPersistent},                                        // no access
		{User: "a", FrontEnd: "front", Image: "rh72", Mode: vmm.ColdBoot, Disk: NonPersistent, Access: AccessLocal, DataNode: "data"}, // dangling data
	}
	for i, cfg := range bad {
		if _, err := g.CreateSession(cfg, nil); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestNoFutureFails(t *testing.T) {
	g := testbed(t)
	cfg := baseConfig()
	cfg.Site = "mars"
	var got error
	if _, err := g.CreateSession(cfg, func(_ *Session, err error) { got = err }); err != nil {
		t.Fatal(err)
	}
	g.Kernel().Run()
	if !errors.Is(got, ErrNoFuture) {
		t.Errorf("session error = %v, want ErrNoFuture", got)
	}
}

func TestMissingImageFails(t *testing.T) {
	g := testbed(t)
	cfg := baseConfig()
	cfg.Image = "windows-xp"
	var got error
	if _, err := g.CreateSession(cfg, func(_ *Session, err error) { got = err }); err != nil {
		t.Fatal(err)
	}
	g.Kernel().Run()
	if !errors.Is(got, ErrNoImage) {
		t.Errorf("session error = %v, want ErrNoImage", got)
	}
}

func TestSlotsExhaustion(t *testing.T) {
	g := testbed(t)
	// Fill all four slots, then a fifth session must fail.
	for i := 0; i < 4; i++ {
		cfg := baseConfig()
		cfg.User = "alice"
		startSession(t, g, cfg)
	}
	var got error
	done := false
	if _, err := g.CreateSession(baseConfig(), func(_ *Session, err error) { got = err; done = true }); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(sim.Hour))
	if !done {
		t.Fatal("fifth session never resolved")
	}
	if !errors.Is(got, ErrNoFuture) {
		t.Errorf("fifth session = %v, want ErrNoFuture", got)
	}
}

func TestTunnelWhenNoDHCP(t *testing.T) {
	g := NewGrid(2)
	mustAdd := func(cfg NodeConfig) {
		t.Helper()
		if _, err := g.AddNode(cfg); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(NodeConfig{Name: "home", Site: "user", Role: RoleFrontEnd})
	mustAdd(NodeConfig{Name: "farm", Site: "provider", Role: RoleCompute, Slots: 1}) // no DHCP
	if err := g.Net().ConnectWAN("home", "farm"); err != nil {
		t.Fatal(err)
	}
	img := storage.ImageInfo{Name: "rh72", OS: "rh72", DiskBytes: 1 * hw.GB, MemBytes: 128 * hw.MB}
	if err := g.Node("farm").InstallImage(img); err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{
		User: "bob", FrontEnd: "home", Image: "rh72",
		Mode: vmm.WarmRestore, Disk: NonPersistent, Access: AccessLocal,
		HomeNode: "home",
	}
	s := startSession(t, g, cfg)
	if s.Tunnel() == nil {
		t.Fatal("no tunnel despite missing site DHCP")
	}
	if s.Addr() != "" {
		t.Error("address assigned from nowhere")
	}
	if s.EventAt("tunnel-established") < 0 {
		t.Error("tunnel step missing from timeline")
	}
}

func TestNoAddressSourceFails(t *testing.T) {
	g := NewGrid(3)
	if _, err := g.AddNode(NodeConfig{Name: "home", Site: "u", Role: RoleFrontEnd}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNode(NodeConfig{Name: "farm", Site: "p", Role: RoleCompute, Slots: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Net().ConnectWAN("home", "farm"); err != nil {
		t.Fatal(err)
	}
	img := storage.ImageInfo{Name: "rh72", OS: "rh72", DiskBytes: 1 * hw.GB, MemBytes: 128 * hw.MB}
	if err := g.Node("farm").InstallImage(img); err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{
		User: "bob", FrontEnd: "home", Image: "rh72",
		Mode: vmm.WarmRestore, Disk: NonPersistent, Access: AccessLocal,
		// no HomeNode, farm has no DHCP
	}
	var got error
	done := false
	if _, err := g.CreateSession(cfg, func(_ *Session, err error) { got = err; done = true }); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(sim.Hour))
	if !done {
		t.Fatal("session never resolved")
	}
	if !errors.Is(got, ErrNoAddress) {
		t.Errorf("error = %v, want ErrNoAddress", got)
	}
}

func TestAddNodeValidation(t *testing.T) {
	g := NewGrid(4)
	if _, err := g.AddNode(NodeConfig{}); err == nil {
		t.Error("nameless node accepted")
	}
	if _, err := g.AddNode(NodeConfig{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNode(NodeConfig{Name: "x"}); err == nil {
		t.Error("duplicate node accepted")
	}
	bad := hw.ReferenceMachine("y")
	bad.CPU.Speed = -1
	if _, err := g.AddNode(NodeConfig{Name: "y", Spec: bad}); err == nil {
		t.Error("invalid spec accepted")
	}
}
