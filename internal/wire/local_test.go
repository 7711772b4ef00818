package wire

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestLocalClientFullFlow(t *testing.T) {
	srv := NewServer(1)
	l := NewLocal(srv)

	if err := l.AddNode(AddNodeParams{Name: "front", Site: "s", Roles: []string{"front-end"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddNode(AddNodeParams{
		Name: "c1", Site: "s", Roles: []string{"compute"}, Slots: 1, DHCPPrefix: "10.0.0.",
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Connect("front", "c1", "lan"); err != nil {
		t.Fatal(err)
	}
	if err := l.InstallImage(InstallImageParams{
		Node: "c1", Name: "rh72", OS: "rh", DiskBytes: 1 << 30, MemBytes: 128 << 20,
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.CreateData(CreateDataParams{Node: "c1", File: "d", Bytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}

	info, err := l.NewSession(SessionParams{
		User: "u", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "running" {
		t.Errorf("state = %q", info.State)
	}

	res, err := l.Run(RunParams{Session: info.Name, Name: "j", CPUSeconds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.UserSec != 5 {
		t.Errorf("user = %v", res.UserSec)
	}

	st, err := l.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 2 || len(st.Sessions) != 1 {
		t.Errorf("status: %d nodes, %d sessions", len(st.Nodes), len(st.Sessions))
	}
}

func TestLocalClientErrors(t *testing.T) {
	srv := NewServer(1)
	l := NewLocal(srv)
	if err := l.Call("bogus", nil, nil); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("bogus op = %v", err)
	}
	if err := l.Connect("x", "y", "lan"); err == nil {
		t.Error("connect unknown nodes accepted")
	}
	// Sessions through Local hit the same validation as over TCP.
	if _, err := l.NewSession(SessionParams{}); err == nil {
		t.Error("empty session params accepted")
	}
	if err := l.Call("run", map[string]any{"session": "nope", "cpuSeconds": 1}, nil); err == nil {
		t.Error("run on unknown session accepted")
	}
	// Missing params payloads are rejected, not crashed on.
	if err := l.Call("add-node", nil, nil); err == nil {
		t.Error("paramless add-node accepted")
	}
	// Staged/loopback keyword coverage through sessionConfig.
	for _, p := range []SessionParams{
		{User: "u", FrontEnd: "x", Image: "i", Disk: "ephemeral"},
		{User: "u", FrontEnd: "x", Image: "i", Access: "carrier-pigeon"},
	} {
		if _, err := l.NewSession(p); err == nil {
			t.Errorf("bad params accepted: %+v", p)
		}
	}
}

// TestLocalMatchesTCP runs one scripted session flow through the
// shared wrappers twice at the same seed, once in-process and once over
// TCP: every op must return the same response data bytes, error text
// and error code.
func TestLocalMatchesTCP(t *testing.T) {
	tcp := startServer(t)
	local := NewLocal(NewServer(1))
	viaTCP, viaLocal := sessionScript(t, tcp.Call), sessionScript(t, local.Call)
	if len(viaTCP) != len(viaLocal) {
		t.Fatalf("TCP ran %d ops, Local %d", len(viaTCP), len(viaLocal))
	}
	for i := range viaTCP {
		if viaTCP[i] != viaLocal[i] {
			t.Errorf("op %d differs\n  tcp:   %.300s\n  local: %.300s", i, viaTCP[i], viaLocal[i])
		}
	}
}

// sessionScript drives the session life cycle, the read ops and a set
// of failing requests through call (all but watch, which streams and so
// needs TCP), and returns one line per op: its
// name, raw response data, error text and error code.
func sessionScript(t *testing.T, call func(op string, params, out any) error) []string {
	t.Helper()
	var log []string
	a := api{func(op string, params, out any) error {
		var raw json.RawMessage
		err := call(op, params, &raw)
		var msg string
		if err != nil {
			msg = err.Error()
		}
		log = append(log, fmt.Sprintf("%s data=%s err=%q code=%q", op, raw, msg, ErrorCode(err)))
		if err == nil && out != nil {
			err = json.Unmarshal(raw, out)
		}
		return err
	}}
	if err := buildDemo(a); err != nil {
		t.Fatal(err)
	}
	_ = a.Ping()
	info, err := a.NewSession(SessionParams{
		User: "alice", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
		DataNode: "data", DataFile: "dataset",
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = a.NewSession(SessionParams{
		User: "bob", FrontEnd: "front", Image: "rh72",
		Mode: "reboot", Disk: "persistent", Access: "on-demand", Place: "pack",
	})
	_, _ = a.Run(RunParams{Session: info.Name, Name: "job", CPUSeconds: 30, Reads: 50, ReadBytes: 10 << 20, Mount: "data"})
	_, _ = a.Run(RunParams{Session: info.Name, Name: "huge", CPUSeconds: MaxRunCPUSeconds + 1})
	_, _ = a.Run(RunParams{Session: "ghost", Name: "job", CPUSeconds: 1})
	target := "compute2"
	if info.Node == target {
		target = "compute1"
	}
	_, _ = a.Migrate(info.Name, target)
	_, _ = a.Hibernate(info.Name)
	_, _ = a.Hibernate(info.Name)
	_, _ = a.Wake(info.Name)
	_, _ = a.Usage(info.Name)
	_, _ = a.Trace(info.Name)
	_, _ = a.Query("host")
	_, _ = a.Status()
	_, _ = a.Top()
	_, _ = a.Alerts()
	_, _ = a.Metrics()
	_, _ = a.Spans()
	_, _ = a.Incidents()
	_, _ = a.Incident("inc-999-nope")
	_ = a.call("frobnicate", nil, nil)
	_ = a.call("add-node", nil, nil)
	_, _ = a.NewSession(SessionParams{User: "u", FrontEnd: "front", Image: "rh72", Mode: "warp"})
	_ = a.Shutdown(info.Name)
	_ = a.Shutdown(info.Name)
	_, _ = a.Status()
	return log
}
