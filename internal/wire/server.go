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
	"vmgrid/internal/vfs"
	"vmgrid/internal/vmm"
)

// Server wraps a grid behind a TCP line protocol.
type Server struct {
	mu       sync.Mutex
	grid     *core.Grid
	trace    *obs.Tracer
	sessions map[string]*core.Session

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
// grid is traced and telemetered from birth so the "metrics", "spans",
// "top", and "alerts" ops always have data to report. The collector is
// scraped manually after each dispatched operation (never self-ticked:
// a standing tick would keep the kernel's queue non-empty and break the
// "simulation idle" detection in pumpUntil).
func NewServer(seed uint64) *Server {
	grid := core.NewGrid(seed)
	tr := obs.New(grid.Kernel())
	grid.SetTracer(tr)
	grid.EnableFlightRecorder(obs.FlightConfig{})
	if _, err := grid.EnableTelemetry(telemetry.Config{}); err != nil {
		panic(err) // fresh grid: cannot happen
	}
	if err := grid.DefaultAlertRules(0); err != nil {
		panic(err)
	}
	return &Server{
		grid:     grid,
		trace:    tr,
		sessions: make(map[string]*core.Session),
		closed:   make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
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

// watch streams Count top frames EverySec virtual seconds apart.
// Returns false when the connection should close (encode failure or
// server drain).
func (s *Server) watch(req Request, enc *json.Encoder) bool {
	p, err := unmarshal[WatchParams](req.Params)
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
		resp.More = i < p.Count-1
		if err := enc.Encode(resp); err != nil {
			return false
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
		// ErrStalled just means the fabric is idle — the frame still
		// renders current state.
		if err := k.RunUntil(k.Now().Add(every)); err != nil && !errors.Is(err, sim.ErrStalled) {
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

// pumpUntil drives the simulation until stop() reports true or the
// virtual budget is exhausted.
func (s *Server) pumpUntil(budget sim.Duration, stop func() bool) error {
	k := s.grid.Kernel()
	deadline := k.Now().Add(budget)
	for !stop() {
		if k.Now() >= deadline {
			return fmt.Errorf("wire: operation exceeded %v of virtual time", budget)
		}
		if err := k.RunUntil(k.Now().Add(sim.Second)); err != nil && !stop() {
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

func (s *Server) handle(op string, params json.RawMessage) (json.RawMessage, error) {
	switch op {
	case "ping":
		return marshal("pong")

	case "add-node":
		p, err := unmarshal[AddNodeParams](params)
		if err != nil {
			return nil, err
		}
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
		_, err = s.grid.AddNode(core.NodeConfig{
			Name: p.Name, Site: p.Site, Role: role,
			Slots: p.Slots, DHCPPrefix: p.DHCPPrefix,
		})
		if err != nil {
			return nil, err
		}
		return marshal("ok")

	case "connect":
		p, err := unmarshal[ConnectParams](params)
		if err != nil {
			return nil, err
		}
		switch p.Kind {
		case "lan", "":
			err = s.grid.Net().ConnectLAN(p.A, p.B)
		case "wan":
			err = s.grid.Net().ConnectWAN(p.A, p.B)
		default:
			return nil, fmt.Errorf("wire: unknown link kind %q", p.Kind)
		}
		if err != nil {
			return nil, err
		}
		return marshal("ok")

	case "install-image":
		p, err := unmarshal[InstallImageParams](params)
		if err != nil {
			return nil, err
		}
		node := s.grid.Node(p.Node)
		if node == nil {
			return nil, fmt.Errorf("wire: unknown node %q", p.Node)
		}
		if p.DiskBytes == 0 {
			p.DiskBytes = 2 * hw.GB
		}
		if err := node.InstallImage(storage.ImageInfo{
			Name: p.Name, OS: p.OS, DiskBytes: p.DiskBytes, MemBytes: p.MemBytes,
		}); err != nil {
			return nil, err
		}
		return marshal("ok")

	case "create-data":
		p, err := unmarshal[CreateDataParams](params)
		if err != nil {
			return nil, err
		}
		node := s.grid.Node(p.Node)
		if node == nil {
			return nil, fmt.Errorf("wire: unknown node %q", p.Node)
		}
		if err := node.CreateUserData(p.File, p.Bytes); err != nil {
			return nil, err
		}
		return marshal("ok")

	case "new-session":
		p, err := unmarshal[SessionParams](params)
		if err != nil {
			return nil, err
		}
		cfg, err := sessionConfig(p)
		if err != nil {
			return nil, err
		}
		opts, err := sessionOptions(p)
		if err != nil {
			return nil, err
		}
		var sess *core.Session
		var sessErr error
		done := false
		if _, err := s.grid.CreateSession(cfg, func(ss *core.Session, err error) {
			sess, sessErr, done = ss, err, true
		}, opts...); err != nil {
			return nil, err
		}
		if err := s.pumpUntil(4*sim.Hour, func() bool { return done }); err != nil {
			return nil, err
		}
		if sessErr != nil {
			return nil, sessErr
		}
		s.sessions[sess.Name()] = sess
		return marshal(sessionInfo(sess))

	case "run":
		p, err := unmarshal[RunParams](params)
		if err != nil {
			return nil, err
		}
		sess, ok := s.sessions[p.Session]
		if !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownSession, p.Session)
		}
		w := guest.Workload{
			Name: p.Name, CPUSeconds: p.CPUSeconds,
			PrivPerSec: p.PrivPerSec, MemVirtPerSec: p.MemVirtPerSec,
			Reads: p.Reads, ReadBytes: p.ReadBytes, Mount: p.Mount,
			RootOps: p.RootOps, RootBytes: p.RootBytes,
		}
		var res guest.TaskResult
		done := false
		if err := sess.Run(w, func(r guest.TaskResult) { res = r; done = true }); err != nil {
			return nil, err
		}
		if err := s.pumpUntil(100*sim.Hour, func() bool { return done }); err != nil {
			return nil, err
		}
		if res.Err != nil {
			return nil, res.Err
		}
		return marshal(RunResult{
			Name:       w.Name,
			ElapsedSec: res.Elapsed().Seconds(),
			UserSec:    res.UserSeconds,
			SysSec:     res.SysSeconds(),
			Reads:      res.Reads,
			IOWaitSec:  res.IOWait.Seconds(),
		})

	case "migrate":
		p, err := unmarshal[MigrateParams](params)
		if err != nil {
			return nil, err
		}
		sess, ok := s.sessions[p.Session]
		if !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownSession, p.Session)
		}
		var migErr error
		done := false
		if err := sess.Migrate(p.Target, func(err error) { migErr = err; done = true }); err != nil {
			return nil, err
		}
		if err := s.pumpUntil(4*sim.Hour, func() bool { return done }); err != nil {
			return nil, err
		}
		if migErr != nil {
			return nil, migErr
		}
		return marshal(sessionInfo(sess))

	case "hibernate":
		p, err := unmarshal[SessionRef](params)
		if err != nil {
			return nil, err
		}
		sess, ok := s.sessions[p.Session]
		if !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownSession, p.Session)
		}
		var hErr error
		done := false
		if err := sess.Hibernate(func(err error) { hErr = err; done = true }); err != nil {
			return nil, err
		}
		if err := s.pumpUntil(sim.Hour, func() bool { return done }); err != nil {
			return nil, err
		}
		if hErr != nil {
			return nil, hErr
		}
		return marshal(sessionInfo(sess))

	case "wake":
		p, err := unmarshal[SessionRef](params)
		if err != nil {
			return nil, err
		}
		sess, ok := s.sessions[p.Session]
		if !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownSession, p.Session)
		}
		var wErr error
		done := false
		if err := sess.Wake(func(err error) { wErr = err; done = true }); err != nil {
			return nil, err
		}
		if err := s.pumpUntil(sim.Hour, func() bool { return done }); err != nil {
			return nil, err
		}
		if wErr != nil {
			return nil, wErr
		}
		return marshal(sessionInfo(sess))

	case "shutdown":
		p, err := unmarshal[SessionRef](params)
		if err != nil {
			return nil, err
		}
		sess, ok := s.sessions[p.Session]
		if !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownSession, p.Session)
		}
		sess.Shutdown()
		delete(s.sessions, p.Session)
		return marshal("ok")

	case "usage":
		p, err := unmarshal[SessionRef](params)
		if err != nil {
			return nil, err
		}
		sess, ok := s.sessions[p.Session]
		if !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownSession, p.Session)
		}
		u := sess.Usage()
		return marshal(UsageInfo{
			Session:           sess.Name(),
			CPUSeconds:        u.CPUSeconds,
			GuestUserSeconds:  u.GuestUserSeconds,
			Efficiency:        u.Efficiency(),
			DiffBytes:         u.DiffBytes,
			ImageBytesFetched: u.ImageBytesFetched,
			DataBytesFetched:  u.DataBytesFetched,
			WallSeconds:       u.WallSeconds,
		})

	case "query":
		p, err := unmarshal[QueryParams](params)
		if err != nil {
			return nil, err
		}
		entries := s.grid.Info().Select(gis.Kind(p.Kind), nil)
		out := make([]QueryEntry, 0, len(entries))
		for _, e := range entries {
			out = append(out, QueryEntry{Kind: string(e.Kind), Name: e.Name, Attrs: e.Attrs})
		}
		return marshal(out)

	case "status":
		return marshal(s.status())

	case "top":
		// Scrape first so the snapshot reflects this very instant even
		// when no other op has run yet.
		s.grid.Telemetry().Scrape()
		return marshal(s.top())

	case "alerts":
		s.grid.Telemetry().Scrape()
		col := s.grid.Telemetry()
		info := AlertsInfo{Rules: []AlertRule{}, Firings: []AlertInfo{}}
		for _, r := range col.Rules() {
			info.Rules = append(info.Rules, AlertRule{Name: r.Name, Expr: r.Expr})
		}
		for _, f := range col.Firings() {
			info.Firings = append(info.Firings, alertInfo(f))
		}
		return marshal(info)

	case "metrics":
		return marshal(s.trace.Metrics().Snapshot())

	case "spans":
		spans := s.trace.Spans()
		if spans == nil {
			spans = []obs.SpanRecord{}
		}
		return marshal(spans)

	case "trace":
		p, err := unmarshal[SessionRef](params)
		if err != nil {
			return nil, err
		}
		sess, ok := s.sessions[p.Session]
		if !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownSession, p.Session)
		}
		ctx := sess.TraceContext()
		info := TraceInfo{Session: sess.Name(), Trace: ctx.Trace.String(), Spans: []obs.SpanRecord{}}
		if ctx.Valid() {
			for _, sp := range s.trace.Spans() {
				if sp.Trace == ctx.Trace {
					info.Spans = append(info.Spans, sp)
				}
			}
			info.Report = obs.Analyze(info.Spans, ctx)
		}
		return marshal(info)

	case "incidents":
		out := []IncidentInfo{}
		for _, inc := range s.grid.Recorder().Incidents() {
			out = append(out, incidentInfo(inc))
		}
		return marshal(out)

	case "incident":
		p, err := unmarshal[IncidentRef](params)
		if err != nil {
			return nil, err
		}
		inc := s.grid.Recorder().Incident(p.ID)
		if inc == nil {
			return nil, fmt.Errorf("wire: unknown incident %q", p.ID)
		}
		return marshal(inc)

	default:
		return nil, fmt.Errorf("wire: unknown op %q", op)
	}
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
	var sessNames []string
	for name := range s.sessions {
		sessNames = append(sessNames, name)
	}
	sort.Strings(sessNames)
	for _, name := range sessNames {
		st.Sessions = append(st.Sessions, sessionInfo(s.sessions[name]))
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
	var sessNames []string
	for name := range s.sessions {
		sessNames = append(sessNames, name)
	}
	sort.Strings(sessNames)
	for _, name := range sessNames {
		sess := s.sessions[name]
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
		var hits, misses, retries uint64
		for _, c := range []*vfs.Client{sess.DataClient(), sess.ImageClient()} {
			if c == nil {
				continue
			}
			hits += c.Hits()
			misses += c.Misses()
			retries += c.Retries()
		}
		if hits+misses > 0 {
			row.VFSHitRate = float64(hits) / float64(hits+misses)
		}
		row.VFSRetries = retries
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
