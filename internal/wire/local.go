package wire

// Local is an in-process client for a Server: the same Call and
// wrappers as the TCP Client, dispatched directly. It lets a daemon (or
// test) compose a fabric without round-tripping through its own socket.
type Local struct {
	api
	srv *Server
}

// NewLocal wraps a server for in-process use.
func NewLocal(srv *Server) *Local {
	l := &Local{srv: srv}
	l.api = api{l.Call}
	return l
}

// Call performs one operation, mirroring Client.Call.
func (l *Local) Call(op string, params any, out any) error {
	raw, err := encodeParams(params)
	if err != nil {
		return err
	}
	return decodeResponse(l.srv.dispatch(Request{Op: op, Params: raw}), out)
}
