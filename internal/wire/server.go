package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"vmgrid/internal/core"
	"vmgrid/internal/gis"
	"vmgrid/internal/guest"
	"vmgrid/internal/hw"
	"vmgrid/internal/obs"
	"vmgrid/internal/placement"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
	"vmgrid/internal/telemetry"
	"vmgrid/internal/vmm"
)

// Server wraps a grid behind a TCP line protocol.
type Server struct {
	mu   sync.Mutex
	grid *core.Grid

	listener net.Listener
	wg       sync.WaitGroup
	closed   chan struct{}

	// connMu guards conns and draining: the set of live client
	// connections, and whether Close has begun. Draining unblocks idle
	// readers immediately while requests already being dispatched finish
	// and deliver their responses.
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool
}

// NewServer creates a server around a fresh grid seeded with seed. The
// grid is traced, flight-recorded and telemetered from birth so the
// "metrics", "spans", "incidents", "top", and "alerts" ops always have
// data to report; opts add further construction-time planes (e.g.
// core.WithChunkedStaging). The collector is scraped manually after
// each dispatched operation (never self-ticked: a standing tick would
// keep the kernel's queue non-empty and break the "simulation idle"
// detection in pumpUntil).
func NewServer(seed uint64, opts ...core.GridOption) *Server {
	base := []core.GridOption{core.WithTracing(), core.WithFlightRecorder(), core.WithTelemetry()}
	grid := core.NewGrid(seed, append(base, opts...)...)
	if err := grid.DefaultAlertRules(); err != nil {
		panic(err) // telemetry is on: cannot happen
	}
	return &Server{
		grid:   grid,
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
}

// Grid exposes the underlying grid (for in-process composition).
func (s *Server) Grid() *core.Grid { return s.grid }

// Serve starts accepting connections on addr ("host:port"; ":0" picks a
// free port). It returns immediately; use Addr for the bound address and
// Close to stop.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s.listener = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address ("" before Serve).
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Close stops the listener and drains the connections: readers blocked
// waiting for a next request unblock immediately, requests already
// being dispatched finish and deliver their responses, and Close
// returns once every handler has exited.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	s.connMu.Lock()
	s.draining = true
	for conn := range s.conns {
		// An expired read deadline aborts the handler's blocking Scan;
		// the response write of an in-flight dispatch is unaffected.
		_ = conn.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

// trackConn registers a live connection for drain. If the server is
// already draining, the connection's reads abort immediately.
func (s *Server) trackConn(conn net.Conn) {
	s.connMu.Lock()
	if s.draining {
		_ = conn.SetReadDeadline(time.Now())
	}
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
}

func (s *Server) untrackConn(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

func (s *Server) handleConn(conn net.Conn) {
	s.trackConn(conn)
	defer s.untrackConn(conn)
	defer conn.Close()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64<<10), 4<<20)
	enc := json.NewEncoder(conn)
	for scanner.Scan() {
		var req Request
		resp := Response{}
		if err := json.Unmarshal(scanner.Bytes(), &req); err != nil {
			resp.Error = fmt.Sprintf("bad request: %v", err)
		} else if req.Op == "watch" {
			// Streaming: many responses under one ID, More set on all but
			// the last. Handled outside dispatch so frames interleave with
			// drain checks.
			if !s.watch(req, enc) {
				return
			}
			continue
		} else {
			resp = s.dispatch(req)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
		select {
		case <-s.closed:
			return
		default:
		}
	}
}

// watch streams Count top frames EverySec virtual seconds apart. An
// error frame ends the stream. Returns false when the connection should
// close (encode failure or server drain).
func (s *Server) watch(req Request, enc *json.Encoder) bool {
	p, err := unmarshal[WatchParams](req.Params)
	if err == nil {
		err = p.checkBounds()
	}
	if err != nil {
		_ = enc.Encode(Response{ID: req.ID, Error: err.Error()})
		return true
	}
	if p.Count <= 0 {
		p.Count = 1
	}
	every := sim.DurationOf(p.EverySec)
	if every <= 0 {
		every = sim.Second
	}
	for i := 0; i < p.Count; i++ {
		select {
		case <-s.closed:
			// Draining: tell the client instead of leaving it waiting for
			// frames that will never come.
			_ = enc.Encode(Response{ID: req.ID, Error: "wire: server shutting down"})
			return false
		default:
		}
		resp := s.watchFrame(req.ID, i > 0, every)
		resp.More = i < p.Count-1 && resp.Error == ""
		if err := enc.Encode(resp); err != nil {
			return false
		}
		if resp.Error != "" {
			return true
		}
	}
	return true
}

// watchFrame advances virtual time by every (after the first frame),
// scrapes, and snapshots — one frame of the stream, under the grid
// lock.
func (s *Server) watchFrame(id int64, advance bool, every sim.Duration) Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	if advance {
		k := s.grid.Kernel()
		to := k.Now().Add(every)
		if to > horizon {
			return Response{ID: id, Error: errHorizon.Error()}
		}
		// ErrStalled just means the fabric is idle — the frame still
		// renders current state.
		if err := k.RunUntil(to); err != nil && !errors.Is(err, sim.ErrStalled) {
			return Response{ID: id, Error: err.Error()}
		}
	}
	s.grid.Telemetry().Scrape()
	data, err := marshal(s.top())
	resp := Response{ID: id, Data: data}
	if err != nil {
		resp.Error = err.Error()
	}
	return resp
}

// dispatch runs one operation under the grid lock, then scrapes the
// telemetry collector so the store tracks the fabric op by op (Scrape
// is a no-op when virtual time has not advanced).
func (s *Server) dispatch(req Request) Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := s.handle(req.Op, req.Params)
	s.grid.Telemetry().Scrape()
	resp := Response{ID: req.ID, Data: data}
	if err != nil {
		resp.Error = err.Error()
		resp.Code = ErrorCode(err)
	}
	return resp
}

// handle looks op up in the op table and runs it.
func (s *Server) handle(op string, params json.RawMessage) (json.RawMessage, error) {
	h, ok := handlers[op]
	if !ok {
		return nil, fmt.Errorf("wire: unknown op %q", op)
	}
	v, err := h(s, params)
	if err != nil {
		return nil, err
	}
	return marshal(v)
}

// horizon is MaxVirtualSec as a kernel time. No op and no watch frame
// moves the clock past it.
const horizon = sim.Time(MaxVirtualSec * sim.Second)

var errHorizon = fmt.Errorf("wire: virtual time would pass the %d s horizon", MaxVirtualSec)

// pumpUntil drives the simulation until stop() reports true, the
// virtual budget is exhausted or the clock reaches the horizon.
func (s *Server) pumpUntil(budget sim.Duration, stop func() bool) error {
	k := s.grid.Kernel()
	deadline := k.Now().Add(budget)
	for !stop() {
		if k.Now() >= deadline {
			return fmt.Errorf("wire: operation exceeded %v of virtual time", budget)
		}
		if k.Now() >= horizon {
			return errHorizon
		}
		if err := k.RunUntil(min(k.Now().Add(sim.Second), horizon)); err != nil && !stop() {
			// Queue drained with the condition unmet: nothing further
			// can change.
			if errors.Is(err, sim.ErrStalled) {
				return errors.New("wire: simulation idle before operation completed")
			}
			return err
		}
	}
	return nil
}

// await starts one asynchronous grid operation and pumps the simulation
// until its completion callback fires, for at most budget of virtual
// time. start hands done to the operation; the error done receives is
// the result.
func (s *Server) await(budget sim.Duration, start func(done func(error)) error) error {
	var opErr error
	finished := false
	if err := start(func(err error) { opErr, finished = err, true }); err != nil {
		return err
	}
	if err := s.pumpUntil(budget, func() bool { return finished }); err != nil {
		return err
	}
	return opErr
}

// session returns the live session named name.
func (s *Server) session(name string) (*core.Session, error) {
	if sess := s.grid.Session(name); sess != nil {
		return sess, nil
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownSession, name)
}

// handler serves one op under the grid lock; dispatch marshals the
// value it returns into the response data.
type handler func(s *Server, params json.RawMessage) (any, error)

// handlers is the op table. watch is absent: it streams, so handleConn
// serves it.
var handlers = map[string]handler{
	"ping":          bare(func(*Server) string { return "pong" }),
	"add-node":      decode((*Server).addNode),
	"connect":       decode((*Server).connect),
	"install-image": decode((*Server).installImage),
	"create-data":   decode((*Server).createData),
	"new-session":   decode((*Server).newSession),
	"run":           decode((*Server).run),
	"migrate":       decode((*Server).migrate),
	"hibernate":     decode((*Server).hibernate),
	"wake":          decode((*Server).wake),
	"shutdown":      decode((*Server).shutdown),
	"usage":         decode((*Server).usage),
	"query":         decode((*Server).query),
	"status":        bare((*Server).status),
	"top":           bare((*Server).scrapedTop),
	"alerts":        bare((*Server).alerts),
	"metrics":       bare(func(s *Server) obs.Snapshot { return s.grid.Tracer().Metrics().Snapshot() }),
	"spans":         bare((*Server).spans),
	"trace":         decode((*Server).trace),
	"incidents":     bare((*Server).incidents),
	"incident":      decode((*Server).incident),
}

// decode adapts a handler that takes params of type P; a request
// without params fails with unmarshal's "missing params" error.
func decode[P any](fn func(*Server, P) (any, error)) handler {
	return func(s *Server, raw json.RawMessage) (any, error) {
		p, err := unmarshal[P](raw)
		if err != nil {
			return nil, err
		}
		return fn(s, p)
	}
}

// bare adapts a handler that ignores params and cannot fail.
func bare[T any](fn func(*Server) T) handler {
	return func(s *Server, _ json.RawMessage) (any, error) { return fn(s), nil }
}

// ack is the response of an op with no result of its own.
func ack(err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return "ok", nil
}

func (s *Server) addNode(p AddNodeParams) (any, error) {
	var role core.Role
	for _, r := range p.Roles {
		switch r {
		case "compute":
			role |= core.RoleCompute
		case "image-server":
			role |= core.RoleImageServer
		case "data-server":
			role |= core.RoleDataServer
		case "front-end":
			role |= core.RoleFrontEnd
		default:
			return nil, fmt.Errorf("wire: unknown role %q", r)
		}
	}
	_, err := s.grid.AddNode(core.NodeConfig{
		Name: p.Name, Site: p.Site, Role: role,
		Slots: p.Slots, DHCPPrefix: p.DHCPPrefix,
	})
	return ack(err)
}

func (s *Server) connect(p ConnectParams) (any, error) {
	switch p.Kind {
	case "lan", "":
		return ack(s.grid.Net().ConnectLAN(p.A, p.B))
	case "wan":
		return ack(s.grid.Net().ConnectWAN(p.A, p.B))
	}
	return nil, fmt.Errorf("wire: unknown link kind %q", p.Kind)
}

func (s *Server) installImage(p InstallImageParams) (any, error) {
	node := s.grid.Node(p.Node)
	if node == nil {
		return nil, fmt.Errorf("wire: unknown node %q", p.Node)
	}
	if p.DiskBytes == 0 {
		p.DiskBytes = 2 * hw.GB
	}
	return ack(node.InstallImage(storage.ImageInfo{
		Name: p.Name, OS: p.OS, DiskBytes: p.DiskBytes, MemBytes: p.MemBytes,
	}))
}

func (s *Server) createData(p CreateDataParams) (any, error) {
	node := s.grid.Node(p.Node)
	if node == nil {
		return nil, fmt.Errorf("wire: unknown node %q", p.Node)
	}
	return ack(node.CreateUserData(p.File, p.Bytes))
}

func (s *Server) newSession(p SessionParams) (any, error) {
	cfg, err := sessionConfig(p)
	if err != nil {
		return nil, err
	}
	opts, err := sessionOptions(p)
	if err != nil {
		return nil, err
	}
	var sess *core.Session
	if err := s.await(4*sim.Hour, func(done func(error)) error {
		_, err := s.grid.CreateSession(cfg, func(ss *core.Session, err error) {
			sess = ss
			done(err)
		}, opts...)
		return err
	}); err != nil {
		return nil, err
	}
	return sessionInfo(sess), nil
}

func (s *Server) run(p RunParams) (any, error) {
	if err := p.checkBounds(); err != nil {
		return nil, err
	}
	sess, err := s.session(p.Session)
	if err != nil {
		return nil, err
	}
	w := guest.Workload{
		Name: p.Name, CPUSeconds: p.CPUSeconds,
		PrivPerSec: p.PrivPerSec, MemVirtPerSec: p.MemVirtPerSec,
		Reads: p.Reads, ReadBytes: p.ReadBytes, Mount: p.Mount,
		RootOps: p.RootOps, RootBytes: p.RootBytes,
	}
	var res guest.TaskResult
	if err := s.await(100*sim.Hour, func(done func(error)) error {
		return sess.Run(w, func(r guest.TaskResult) {
			res = r
			done(r.Err)
		})
	}); err != nil {
		return nil, err
	}
	return RunResult{
		Name:       w.Name,
		ElapsedSec: res.Elapsed().Seconds(),
		UserSec:    res.UserSeconds,
		SysSec:     res.SysSeconds(),
		Reads:      res.Reads,
		IOWaitSec:  res.IOWait.Seconds(),
	}, nil
}

// transition runs one session life-cycle step (migrate, hibernate,
// wake) to completion and describes the session afterwards.
func (s *Server) transition(name string, budget sim.Duration, step func(*core.Session, func(error)) error) (any, error) {
	sess, err := s.session(name)
	if err != nil {
		return nil, err
	}
	if err := s.await(budget, func(done func(error)) error { return step(sess, done) }); err != nil {
		return nil, err
	}
	return sessionInfo(sess), nil
}

func (s *Server) migrate(p MigrateParams) (any, error) {
	return s.transition(p.Session, 4*sim.Hour, func(sess *core.Session, done func(error)) error {
		return sess.Migrate(p.Target, done)
	})
}

func (s *Server) hibernate(p SessionRef) (any, error) {
	return s.transition(p.Session, sim.Hour, (*core.Session).Hibernate)
}

func (s *Server) wake(p SessionRef) (any, error) {
	return s.transition(p.Session, sim.Hour, (*core.Session).Wake)
}

func (s *Server) shutdown(p SessionRef) (any, error) {
	sess, err := s.session(p.Session)
	if err != nil {
		return nil, err
	}
	sess.Shutdown()
	return "ok", nil
}

func (s *Server) usage(p SessionRef) (any, error) {
	sess, err := s.session(p.Session)
	if err != nil {
		return nil, err
	}
	u := sess.Usage()
	return UsageInfo{
		Session:           sess.Name(),
		CPUSeconds:        u.CPUSeconds,
		GuestUserSeconds:  u.GuestUserSeconds,
		Efficiency:        u.Efficiency(),
		DiffBytes:         u.DiffBytes,
		ImageBytesFetched: u.ImageBytesFetched,
		DataBytesFetched:  u.DataBytesFetched,
		WallSeconds:       u.WallSeconds,
	}, nil
}

func (s *Server) query(p QueryParams) (any, error) {
	entries := s.grid.Info().Select(gis.Kind(p.Kind), nil)
	out := make([]QueryEntry, 0, len(entries))
	for _, e := range entries {
		out = append(out, QueryEntry{Kind: string(e.Kind), Name: e.Name, Attrs: e.Attrs})
	}
	return out, nil
}

// scrapedTop scrapes first so the snapshot reflects this very instant
// even when no other op has run yet.
func (s *Server) scrapedTop() TopInfo {
	s.grid.Telemetry().Scrape()
	return s.top()
}

func (s *Server) alerts() AlertsInfo {
	col := s.grid.Telemetry()
	col.Scrape()
	info := AlertsInfo{Rules: []AlertRule{}, Firings: []AlertInfo{}}
	for _, r := range col.Rules() {
		info.Rules = append(info.Rules, AlertRule{Name: r.Name, Expr: r.Expr})
	}
	for _, f := range col.Firings() {
		info.Firings = append(info.Firings, alertInfo(f))
	}
	return info
}

func (s *Server) spans() []obs.SpanRecord {
	if spans := s.grid.Tracer().Spans(); spans != nil {
		return spans
	}
	return []obs.SpanRecord{}
}

func (s *Server) trace(p SessionRef) (any, error) {
	sess, err := s.session(p.Session)
	if err != nil {
		return nil, err
	}
	ctx := sess.TraceContext()
	info := TraceInfo{Session: sess.Name(), Trace: ctx.Trace.String(), Spans: []obs.SpanRecord{}}
	if ctx.Valid() {
		for _, sp := range s.grid.Tracer().Spans() {
			if sp.Trace == ctx.Trace {
				info.Spans = append(info.Spans, sp)
			}
		}
		info.Report = obs.Analyze(info.Spans, ctx)
	}
	return info, nil
}

func (s *Server) incidents() []IncidentInfo {
	out := []IncidentInfo{}
	for _, inc := range s.grid.Recorder().Incidents() {
		out = append(out, incidentInfo(inc))
	}
	return out
}

func (s *Server) incident(p IncidentRef) (any, error) {
	inc := s.grid.Recorder().Incident(p.ID)
	if inc == nil {
		return nil, fmt.Errorf("wire: unknown incident %q", p.ID)
	}
	return inc, nil
}

func sessionConfig(p SessionParams) (core.SessionConfig, error) {
	cfg := core.SessionConfig{
		User: p.User, FrontEnd: p.FrontEnd, Image: p.Image,
		Site: p.Site, DataNode: p.DataNode, DataFile: p.DataFile,
		HomeNode: p.HomeNode,
	}
	switch p.Mode {
	case "reboot", "":
		cfg.Mode = vmm.ColdBoot
	case "restore":
		cfg.Mode = vmm.WarmRestore
	default:
		return cfg, fmt.Errorf("wire: unknown mode %q", p.Mode)
	}
	switch p.Disk {
	case "non-persistent", "":
		cfg.Disk = core.NonPersistent
	case "persistent":
		cfg.Disk = core.Persistent
	default:
		return cfg, fmt.Errorf("wire: unknown disk policy %q", p.Disk)
	}
	switch p.Access {
	case "local", "":
		cfg.Access = core.AccessLocal
	case "loopback":
		cfg.Access = core.AccessLoopback
	case "on-demand":
		cfg.Access = core.AccessOnDemand
	case "staged":
		cfg.Access = core.AccessStaged
	default:
		return cfg, fmt.Errorf("wire: unknown access %q", p.Access)
	}
	return cfg, nil
}

// sessionOptions maps the wire-level placement knobs onto CreateSession
// functional options.
func sessionOptions(p SessionParams) ([]core.CreateOption, error) {
	var opts []core.CreateOption
	if p.Place != "" {
		placer, err := placement.ByName(p.Place)
		if err != nil {
			return nil, fmt.Errorf("wire: %v", err)
		}
		opts = append(opts, core.WithPlacer(placer))
	}
	if p.NodeHint != "" {
		opts = append(opts, core.WithNodeHint(p.NodeHint))
	}
	return opts, nil
}

func sessionInfo(sess *core.Session) SessionInfo {
	info := SessionInfo{
		Name:        sess.Name(),
		State:       sess.State().String(),
		Addr:        sess.Addr(),
		ImageServer: sess.ImageServer(),
		LocalUser:   sess.LocalUser(),
		Events:      map[string]float64{},
	}
	if sess.Node() != nil {
		info.Node = sess.Node().Name()
		info.Console = sess.Console()
	}
	for _, e := range sess.Events() {
		info.Events[e.Step] = e.At.Seconds()
	}
	if ready, sub := sess.EventAt("ready"), sess.EventAt("submitted"); ready >= 0 && sub >= 0 {
		info.StartupSec = ready.Sub(sub).Seconds()
	}
	return info
}

func (s *Server) status() StatusInfo {
	st := StatusInfo{VirtualSec: s.grid.Kernel().Now().Seconds()}
	var names []string
	for _, e := range s.grid.Info().Select(gis.KindHost, nil) {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := s.grid.Node(name)
		if n == nil {
			continue
		}
		st.Nodes = append(st.Nodes, NodeInfo{
			Name:     n.Name(),
			Site:     n.Site(),
			Slots:    n.Slots(),
			Runnable: n.Host().Runnable(),
			Files:    n.Store().Files(),
		})
	}
	for _, sess := range s.grid.LiveSessions() {
		st.Sessions = append(st.Sessions, sessionInfo(sess))
	}
	return st
}

func incidentInfo(inc *obs.Incident) IncidentInfo {
	row := IncidentInfo{
		ID:        inc.ID,
		Trigger:   inc.Trigger,
		Subject:   inc.Subject,
		AtSec:     inc.At.Seconds(),
		SealedSec: inc.SealedAt.Seconds(),
		Sealed:    inc.Sealed(),
		Causal:    len(inc.Causal),
	}
	if inc.Report != nil {
		row.Root = inc.Report.Root
	}
	return row
}

func alertInfo(f telemetry.Firing) AlertInfo {
	return AlertInfo{
		Rule:        f.Rule,
		Series:      f.Series,
		AtSec:       f.At.Seconds(),
		Value:       f.Value,
		ResolvedSec: f.ResolvedAt.Seconds(),
	}
}

// top builds one grid snapshot from live fabric state plus the active
// alert set. Caller holds s.mu.
func (s *Server) top() TopInfo {
	info := TopInfo{
		VirtualSec: s.grid.Kernel().Now().Seconds(),
		Scrapes:    s.grid.Telemetry().Scrapes(),
		Nodes:      []TopNode{},
		Sessions:   []TopSession{},
		Alerts:     []AlertInfo{},
	}
	for _, name := range s.grid.NodeNames() {
		n := s.grid.Node(name)
		row := TopNode{Name: n.Name(), Site: n.Site(), Crashed: n.Crashed()}
		if !n.Crashed() {
			row.Slots = n.Slots()
			row.Runnable = n.Host().Runnable()
			row.Load = n.Host().LoadAverage()
		}
		if db := s.grid.Telemetry().DB(); db != nil {
			if sr := db.Find("node.predicted_load", telemetry.L("node", name)); sr != nil && sr.Len() > 0 {
				row.PredictedLoad = sr.Last().V
			}
		}
		info.Nodes = append(info.Nodes, row)
	}
	for _, sess := range s.grid.LiveSessions() {
		row := TopSession{Name: sess.Name(), State: sess.State().String()}
		if sess.Node() != nil {
			row.Node = sess.Node().Name()
		}
		u := sess.Usage()
		if u.GuestUserSeconds > 0 {
			row.Slowdown = u.CPUSeconds / u.GuestUserSeconds
		}
		row.GuestSec = u.GuestUserSeconds
		row.WallSeconds = u.WallSeconds
		row.Epoch = sess.Epoch()
		v := sess.VFSTotals()
		row.VFSHitRate, _ = v.HitRate()
		row.VFSRetries = v.Retries
		info.Sessions = append(info.Sessions, row)
	}
	if p := s.grid.ChunkPlane(); p != nil {
		st := p.Stats()
		info.Staging = &TopStaging{
			ChunkHits:   st.Hits,
			ChunkMisses: st.Misses,
			HitRate:     st.HitRate(),
			BytesSaved:  st.BytesSaved,
			Evictions:   st.Evictions,
		}
	}
	if cl := s.grid.Info().Cluster(); cl != nil {
		for i := 0; i < cl.Size(); i++ {
			info.Replicas = append(info.Replicas, TopReplica{
				Node:   cl.Node(i),
				LagSec: cl.Lag(i).Seconds(),
			})
		}
	}
	for _, f := range s.grid.Telemetry().Active() {
		info.Alerts = append(info.Alerts, alertInfo(f))
	}
	return info
}
