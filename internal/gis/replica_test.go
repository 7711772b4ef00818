package gis

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"vmgrid/internal/netsim"
	"vmgrid/internal/retry"
	"vmgrid/internal/sim"
)

// lanCluster builds a LAN of the named nodes and replicates a fresh
// registry across the first n of them.
func lanCluster(t *testing.T, k *sim.Kernel, n int, nodes ...string) (*netsim.Network, *Service, *Cluster) {
	t.Helper()
	net := netsim.New(k)
	if err := net.BuildLAN(nodes...); err != nil {
		t.Fatal(err)
	}
	svc := New(k)
	c, err := NewCluster(net, svc, nodes[:n], 0)
	if err != nil {
		t.Fatal(err)
	}
	return net, svc, c
}

// TestClusterOfOneDegenerates: a single replica is today's unreplicated
// registry — every write from anywhere succeeds (quorum of 1 is 1),
// reads are never stale, and the view is trivially converged. The
// experiment goldens rely on this degeneration.
func TestClusterOfOneDegenerates(t *testing.T) {
	k := sim.NewKernel(1)
	net, svc, c := lanCluster(t, k, 1, "g0", "far")

	if err := svc.RegisterFrom("far", KindHost, "h1", map[string]any{AttrSite: "nwu"}, 0); err != nil {
		t.Fatal(err)
	}
	// Even a fully partitioned origin cannot lose quorum against itself
	// being the only judge — but an origin that cannot reach the lone
	// replica must still fail closed.
	if err := net.SetNodeUp("far", false); err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterFrom("far", KindHost, "h2", nil, 0); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("partitioned origin against lone replica: err %v, want ErrNoQuorum", err)
	}
	// Writes from the replica's own node always work.
	if err := svc.Register(KindHost, "h3", nil, 0); err != nil {
		t.Fatal(err)
	}
	if !c.Converged() {
		t.Error("cluster of one not converged")
	}
	cl := c.ClientAt("g0", retry.Policy{})
	if _, stale, err := cl.Lookup(KindHost, "h1"); err != nil || stale {
		t.Errorf("lookup: stale=%v err=%v", stale, err)
	}
}

// TestClusterOfTwoSplitFailsClosed: with two replicas a split leaves
// both sides at 1 of 2 — neither reaches a majority, so writes fail on
// both sides (no quorum is possible, the safe degenerate of even N).
func TestClusterOfTwoSplitFailsClosed(t *testing.T) {
	k := sim.NewKernel(1)
	net, svc, c := lanCluster(t, k, 2, "g0", "g1")

	if err := svc.Register(KindHost, "pre", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkUp("g0", "g1", false); err != nil {
		t.Fatal(err)
	}
	for _, origin := range []string{"g0", "g1"} {
		err := svc.RegisterFrom(origin, KindHost, "during", nil, 0)
		if !errors.Is(err, ErrNoQuorum) {
			t.Errorf("write from %s during 1-1 split: err %v, want ErrNoQuorum", origin, err)
		}
	}
	if got := c.MinorityWrites(); got != 2 {
		t.Errorf("MinorityWrites = %d, want 2", got)
	}
	// Reads still serve from either side, stale-marked.
	for _, node := range []string{"g0", "g1"} {
		cl := c.ClientAt(node, retry.Policy{})
		if _, stale, err := cl.Lookup(KindHost, "pre"); err != nil || !stale {
			t.Errorf("read at %s during split: stale=%v err=%v, want stale pre-split record", node, stale, err)
		}
	}
	// Heal: writes flow again and both replicas converge.
	if err := net.SetLinkUp("g0", "g1", true); err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterFrom("g1", KindHost, "after", nil, 0); err != nil {
		t.Fatal(err)
	}
	if !c.Converged() {
		t.Error("healed 2-cluster not converged")
	}
}

// TestClusterOfFiveTwoConcurrentPartitions: with five replicas and two
// isolated members, the three-node majority keeps accepting writes and
// the isolated members reject them; gossip reconverges everyone after
// heal, including a deregistration (tombstone) committed during the
// outage.
func TestClusterOfFiveTwoConcurrentPartitions(t *testing.T) {
	k := sim.NewKernel(1)
	nodes := []string{"g0", "g1", "g2", "g3", "g4"}
	net, svc, c := lanCluster(t, k, 5, nodes...)
	c.Start()
	defer c.Stop()

	if err := svc.Register(KindHost, "doomed", nil, 0); err != nil {
		t.Fatal(err)
	}
	// Two concurrent partitions: g3 fully isolated, g4 muted (one-way).
	if err := net.SetNodeUp("g3", false); err != nil {
		t.Fatal(err)
	}
	if err := net.SetNodeDirUp("g4", true, false); err != nil {
		t.Fatal(err)
	}

	// Majority side commits a write and a delete.
	if err := svc.RegisterFrom("g0", KindHost, "boom", map[string]any{AttrSite: "ufl"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := svc.DeregisterFrom("g1", KindHost, "doomed"); err != nil {
		t.Fatal(err)
	}
	// Both isolated members fail closed — the muted g4 too, because a
	// write needs its reply direction.
	for _, origin := range []string{"g3", "g4"} {
		if err := svc.RegisterFrom(origin, KindHost, "minority-"+origin, nil, 0); !errors.Is(err, ErrNoQuorum) {
			t.Errorf("write from %s: err %v, want ErrNoQuorum", origin, err)
		}
	}
	// Minority replicas serve their pre-partition view, stale-marked.
	cl3 := c.ClientAt("g3", retry.Policy{})
	if _, stale, err := cl3.Lookup(KindHost, "doomed"); err != nil || !stale {
		t.Errorf("g3 read during isolation: stale=%v err=%v, want stale hit", stale, err)
	}
	if _, _, err := cl3.Lookup(KindHost, "boom"); !errors.Is(err, ErrNotFound) {
		t.Errorf("g3 sees majority-era write during isolation: %v", err)
	}

	// Let gossip run during the outage: the split must persist (no
	// back-channel), then heal and reconverge.
	if err := k.RunUntil(sim.Time(5 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if c.Converged() {
		t.Fatal("cluster converged across a live partition")
	}
	if err := net.SetNodeUp("g3", true); err != nil {
		t.Fatal(err)
	}
	if err := net.SetNodeDirUp("g4", true, true); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(sim.Time(8 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !c.Converged() {
		t.Fatal("cluster not converged after heal + gossip")
	}
	// The tombstone won: "doomed" is gone everywhere, "boom" is present.
	for i := 0; i < c.Size(); i++ {
		if _, err := c.Replica(i).Lookup(KindHost, "doomed"); !errors.Is(err, ErrNotFound) {
			t.Errorf("replica %d resurrects deregistered record: %v", i, err)
		}
		if _, err := c.Replica(i).Lookup(KindHost, "boom"); err != nil {
			t.Errorf("replica %d missing majority write after heal: %v", i, err)
		}
	}
}

// TestClientFailoverAcrossReplicas: a reader whose nearest replicas are
// unreachable fails over down the pinned order; the retry budget bounds
// the probes.
func TestClientFailoverAcrossReplicas(t *testing.T) {
	k := sim.NewKernel(1)
	nodes := []string{"g0", "g1", "g2"}
	net, svc, c := lanCluster(t, k, 3, append(nodes, "reader")...)

	if err := svc.Register(KindHost, "h", nil, 0); err != nil {
		t.Fatal(err)
	}
	// Isolate g0 and g1 entirely: only g2 remains in the reader's reach.
	if err := net.SetNodeUp("g0", false); err != nil {
		t.Fatal(err)
	}
	if err := net.SetNodeUp("g1", false); err != nil {
		t.Fatal(err)
	}
	// The read fails over to g2 and is stale-marked: g2 alone is a
	// minority of three.
	cl := c.ClientAt("reader", retry.Policy{})
	if _, stale, err := cl.Lookup(KindHost, "h"); err != nil || !stale {
		t.Fatalf("failover read: stale=%v err=%v, want stale minority hit", stale, err)
	}
	// A one-attempt budget only probes g0 and gives up.
	one := c.ClientAt("reader", retry.Policy{MaxAttempts: 1})
	if _, _, err := one.Lookup(KindHost, "h"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("budgeted read: err %v, want ErrUnreachable", err)
	}
	// Fully cut off: even the full budget fails.
	if err := net.SetNodeUp("reader", false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Lookup(KindHost, "h"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cut-off read: err %v, want ErrUnreachable", err)
	}
}

// TestBumpEpochMonotonicAcrossPartitions: epoch bumps stay strictly
// monotonic because every successful bump's quorum intersects the
// previous one's; a minority-side bump fails without consuming a value.
func TestBumpEpochMonotonicAcrossPartitions(t *testing.T) {
	k := sim.NewKernel(1)
	nodes := []string{"g0", "g1", "g2"}
	net, svc, c := lanCluster(t, k, 3, nodes...)

	e1, err := c.BumpEpoch("g0", "sess")
	if err != nil || e1 != 1 {
		t.Fatalf("first bump = %d, %v", e1, err)
	}
	// Isolate g2; bump from the majority side.
	if err := net.SetNodeUp("g2", false); err != nil {
		t.Fatal(err)
	}
	e2, err := c.BumpEpoch("g1", "sess")
	if err != nil || e2 != 2 {
		t.Fatalf("majority bump = %d, %v", e2, err)
	}
	// Minority bump fails closed.
	if _, err := c.BumpEpoch("g2", "sess"); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("minority bump: err %v, want ErrNoQuorum", err)
	}
	// Heal, then bump from the previously isolated node: it must see 2
	// via quorum intersection and produce 3, not 2 again.
	if err := net.SetNodeUp("g2", true); err != nil {
		t.Fatal(err)
	}
	e3, err := c.BumpEpoch("g2", "sess")
	if err != nil || e3 != 3 {
		t.Fatalf("post-heal bump = %d, %v", e3, err)
	}
	if got := svc.Epoch("sess"); got != 3 {
		t.Errorf("primary view epoch = %d, want 3", got)
	}
}

// TestEpochGuardFencesStaleToken: the guard admits the current epoch
// and rejects an older token with ErrFencedEpoch, allocation-free.
func TestEpochGuardFencesStaleToken(t *testing.T) {
	k := sim.NewKernel(1)
	_, svc, c := lanCluster(t, k, 1, "g0")

	e1, err := c.BumpEpoch("g0", "sess")
	if err != nil {
		t.Fatal(err)
	}
	guard := svc.EpochGuard("sess", e1)
	if err := guard(); err != nil {
		t.Fatalf("current-epoch guard: %v", err)
	}
	if _, err := c.BumpEpoch("g0", "sess"); err != nil {
		t.Fatal(err)
	}
	if err := guard(); !errors.Is(err, ErrFencedEpoch) {
		t.Fatalf("stale-token guard: err %v, want ErrFencedEpoch", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = guard() }); allocs != 0 {
		t.Errorf("EpochGuard check allocates %v per run, want 0", allocs)
	}
}

// TestLWWStampOrder pins the reconciliation order: time beats sequence
// beats origin.
func TestLWWStampOrder(t *testing.T) {
	a := Stamp{T: 10, Seq: 1, Origin: "a"}
	b := Stamp{T: 9, Seq: 2, Origin: "z"}
	if !a.After(b) || b.After(a) {
		t.Error("later time must win")
	}
	c := Stamp{T: 10, Seq: 2, Origin: "a"}
	if !c.After(a) {
		t.Error("same time: higher seq must win")
	}
	d := Stamp{T: 10, Seq: 2, Origin: "b"}
	if !d.After(c) {
		t.Error("same time+seq: higher origin must win")
	}
}

// bruteLag is Lag from scratch: the newest stamp anywhere in meta
// against the newest stamp in replica i's meta.
func bruteLag(c *Cluster, i int) sim.Duration {
	newestOf := func(r *Replica) Stamp {
		var max Stamp
		for _, v := range r.meta {
			if v != nil && v.st.After(max) {
				max = v.st
			}
		}
		return max
	}
	var newest Stamp
	for _, r := range c.reps {
		if s := newestOf(r); s.After(newest) {
			newest = s
		}
	}
	mine := newestOf(c.reps[i])
	if newest.T <= mine.T {
		return 0
	}
	return sim.Duration(newest.T - mine.T)
}

// TestLagMatchesBruteForceMax: the tracked newest stamp gives the same
// Lag as a full scan of every replica's meta — from seeded pre-existing
// state, through writes, deregisters and gossip, across a partition
// that starves two replicas, and after the heal reconverges them.
func TestLagMatchesBruteForceMax(t *testing.T) {
	k := sim.NewKernel(1)
	nodes := []string{"g0", "g1", "g2", "g3", "g4"}
	net := netsim.New(k)
	if err := net.BuildLAN(nodes...); err != nil {
		t.Fatal(err)
	}
	svc := New(k)
	for _, name := range []string{"pre-b", "pre-a", "pre-c"} {
		if err := svc.Register(KindHost, name, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	_ = k.RunUntil(sim.Time(sim.Second))
	c, err := NewCluster(net, svc, nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	check := func(step int) {
		t.Helper()
		for i := 0; i < c.Size(); i++ {
			if got, want := c.Lag(i), bruteLag(c, i); got != want {
				t.Fatalf("step %d: Lag(%d) = %v, brute-force max %v", step, i, got, want)
			}
		}
	}
	check(-1)
	rng := rand.New(rand.NewSource(7))
	lagged := false
	for step := 0; step < 300; step++ {
		switch step {
		case 100: // starve g3 and g4 of writes and gossip
			for _, n := range []string{"g3", "g4"} {
				if err := net.SetNodeUp(n, false); err != nil {
					t.Fatal(err)
				}
			}
		case 200:
			for _, n := range []string{"g3", "g4"} {
				if err := net.SetNodeUp(n, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		origin := nodes[rng.Intn(len(nodes))]
		name := fmt.Sprint("h", rng.Intn(40))
		switch op := rng.Intn(4); op {
		case 0, 1:
			_ = svc.RegisterFrom(origin, KindHost, name, map[string]any{AttrSite: origin}, 0)
		case 2:
			_ = svc.DeregisterFrom(origin, KindHost, name)
		case 3:
			_ = k.RunUntil(k.Now().Add(sim.Duration(rng.Intn(1500)) * sim.Millisecond))
		}
		_ = k.RunUntil(k.Now().Add(50 * sim.Millisecond))
		check(step)
		if c.Lag(3) > 0 {
			lagged = true
		}
	}
	if !lagged {
		t.Fatal("partition never made the starved replica lag")
	}
	_ = k.RunUntil(k.Now().Add(5 * sim.Second))
	check(300)
	if !c.Converged() {
		t.Fatal("cluster not converged after heal")
	}
	for i := 0; i < c.Size(); i++ {
		if lag := c.Lag(i); lag != 0 {
			t.Errorf("replica %d lags %v after convergence", i, lag)
		}
	}
}

// lagSink keeps benchmarked lags observable to the compiler.
var lagSink sim.Duration

// BenchmarkGISLag measures one scrape's replica-lag readout: Lag for
// every member of a five-replica cluster holding a few hundred records.
func BenchmarkGISLag(b *testing.B) {
	k := sim.NewKernel(1)
	nodes := []string{"g0", "g1", "g2", "g3", "g4"}
	net := netsim.New(k)
	if err := net.BuildLAN(nodes...); err != nil {
		b.Fatal(err)
	}
	svc := New(k)
	c, err := NewCluster(net, svc, nodes, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := svc.RegisterFrom(nodes[i%len(nodes)], KindHost, fmt.Sprint("h", i), map[string]any{AttrSite: "nwu"}, 0); err != nil {
			b.Fatal(err)
		}
		_ = k.RunUntil(k.Now().Add(10 * sim.Millisecond))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < c.Size(); r++ {
			lagSink += c.Lag(r)
		}
	}
}

// TestSnapshotAfterExpireShipsRegistryState: gossip ships what a
// replica's registry holds at snapshot time. Versions are shared by
// pointer, so a record Service.Expire dropped must go out as a zero
// record under its stamp, not as the shared version's entry.
func TestSnapshotAfterExpireShipsRegistryState(t *testing.T) {
	k := sim.NewKernel(1)
	_, svc, c := lanCluster(t, k, 3, "g0", "g1", "g2")
	if err := svc.Register(KindLease, "short", map[string]any{AttrSite: "nwu"}, sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register(KindHost, "keep", nil, 0); err != nil {
		t.Fatal(err)
	}
	find := func(snap []*version, name string) *version {
		t.Helper()
		for _, v := range snap {
			if c.keys[v.id] == key(KindLease, name) || c.keys[v.id] == key(KindHost, name) {
				return v
			}
		}
		t.Fatalf("%s missing from snapshot", name)
		return nil
	}
	r0 := c.reps[0]
	if v := find(r0.snapshot(), "short"); v != r0.meta[v.id] || v.e.Name != "short" {
		t.Fatalf("live snapshot did not share the adopted version: %+v", v)
	}
	_ = k.RunUntil(sim.Time(2 * sim.Second))
	if n := svc.Expire(); n != 1 {
		t.Fatalf("Expire dropped %d records, want 1", n)
	}
	snap := r0.snapshot()
	short := find(snap, "short")
	if short.e.Name != "" || short.e.Attrs != nil || short.del || short.st != r0.meta[short.id].st {
		t.Fatalf("expired record shipped as %+v, want a zero record under stamp %+v", short, r0.meta[short.id].st)
	}
	if keep := find(snap, "keep"); keep != r0.meta[keep.id] {
		t.Fatal("unexpired record not shared after an Expire elsewhere")
	}
	if len(snap) != 2 {
		t.Fatalf("snapshot holds %d versions, want 2", len(snap))
	}
}
