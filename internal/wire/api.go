package wire

import (
	"encoding/json"
	"fmt"

	"vmgrid/internal/obs"
)

// api is the one set of typed wrappers over the protocol's ops. Client
// and Local embed it over their own Call, so both transports share
// every wrapper and behave the same.
type api struct {
	call func(op string, params, out any) error
}

// encodeParams marshals a Call's params; nil sends none.
func encodeParams(params any) (json.RawMessage, error) {
	if params == nil {
		return nil, nil
	}
	raw, err := json.Marshal(params)
	if err != nil {
		return nil, fmt.Errorf("wire: params: %w", err)
	}
	return raw, nil
}

// decodeResponse turns a response into a Call's result: the error it
// carries, decoded through the code table so errors.Is matching holds,
// or its data unmarshaled into out when out is non-nil.
func decodeResponse(resp Response, out any) error {
	if resp.Error != "" {
		return decodeError(resp)
	}
	if out != nil {
		if err := json.Unmarshal(resp.Data, out); err != nil {
			return fmt.Errorf("wire: response data: %w", err)
		}
	}
	return nil
}

// fetch performs op and decodes its response data as a T.
func fetch[T any](a api, op string, params any) (T, error) {
	var v T
	err := a.call(op, params, &v)
	return v, err
}

// Ping checks liveness.
func (a api) Ping() error {
	pong, err := fetch[string](a, "ping", nil)
	if err == nil && pong != "pong" {
		err = fmt.Errorf("wire: unexpected ping reply %q", pong)
	}
	return err
}

// AddNode attaches a node to the served grid.
func (a api) AddNode(p AddNodeParams) error { return a.call("add-node", p, nil) }

// Connect links two nodes.
func (a api) Connect(x, y, kind string) error {
	return a.call("connect", ConnectParams{A: x, B: y, Kind: kind}, nil)
}

// InstallImage installs an image on a node.
func (a api) InstallImage(p InstallImageParams) error { return a.call("install-image", p, nil) }

// CreateData provisions user data on a node.
func (a api) CreateData(p CreateDataParams) error { return a.call("create-data", p, nil) }

// NewSession starts a VM session and waits for it to be ready.
func (a api) NewSession(p SessionParams) (SessionInfo, error) {
	return fetch[SessionInfo](a, "new-session", p)
}

// Run executes a workload in a session and waits for completion.
func (a api) Run(p RunParams) (RunResult, error) { return fetch[RunResult](a, "run", p) }

// Migrate moves a session to another node.
func (a api) Migrate(session, target string) (SessionInfo, error) {
	return fetch[SessionInfo](a, "migrate", MigrateParams{Session: session, Target: target})
}

// Hibernate checkpoints a session.
func (a api) Hibernate(session string) (SessionInfo, error) {
	return fetch[SessionInfo](a, "hibernate", SessionRef{Session: session})
}

// Wake resumes a hibernated session.
func (a api) Wake(session string) (SessionInfo, error) {
	return fetch[SessionInfo](a, "wake", SessionRef{Session: session})
}

// Shutdown ends a session.
func (a api) Shutdown(session string) error {
	return a.call("shutdown", SessionRef{Session: session}, nil)
}

// Usage fetches a session's metered consumption.
func (a api) Usage(session string) (UsageInfo, error) {
	return fetch[UsageInfo](a, "usage", SessionRef{Session: session})
}

// Query lists information-service records of a kind.
func (a api) Query(kind string) ([]QueryEntry, error) {
	return fetch[[]QueryEntry](a, "query", QueryParams{Kind: kind})
}

// Status fetches the fabric summary.
func (a api) Status() (StatusInfo, error) { return fetch[StatusInfo](a, "status", nil) }

// Metrics fetches the served grid's metrics snapshot.
func (a api) Metrics() (obs.Snapshot, error) { return fetch[obs.Snapshot](a, "metrics", nil) }

// Spans fetches the served grid's recorded spans.
func (a api) Spans() ([]obs.SpanRecord, error) { return fetch[[]obs.SpanRecord](a, "spans", nil) }

// Trace fetches one session's causal tree and postmortem report.
func (a api) Trace(session string) (TraceInfo, error) {
	return fetch[TraceInfo](a, "trace", SessionRef{Session: session})
}

// Incidents lists the flight recorder's incident bundles.
func (a api) Incidents() ([]IncidentInfo, error) { return fetch[[]IncidentInfo](a, "incidents", nil) }

// Incident fetches one full incident bundle by id.
func (a api) Incident(id string) (obs.Incident, error) {
	return fetch[obs.Incident](a, "incident", IncidentRef{ID: id})
}

// Top fetches one scrape-fresh grid snapshot.
func (a api) Top() (TopInfo, error) { return fetch[TopInfo](a, "top", nil) }

// Alerts fetches the rule set and full alert firing log.
func (a api) Alerts() (AlertsInfo, error) { return fetch[AlertsInfo](a, "alerts", nil) }
