package wire

import (
	"errors"
	"fmt"

	"vmgrid/internal/core"
)

// ErrUnknownSession is returned when an op names no live session of the
// served grid.
var ErrUnknownSession = errors.New("wire: unknown session")

// Stable wire codes for sentinel errors. The server stamps the matching
// code into Response.Code; the client reconstructs the sentinel from it,
// so errors.Is(err, core.ErrBadSession) holds across the TCP boundary.
// Codes are part of the protocol: never renumber or reuse them.
const (
	CodeBadSession     = "bad-session"
	CodeNoFuture       = "no-future"
	CodeNoImage        = "no-image"
	CodeNoAddress      = "no-address"
	CodeUnknownNode    = "unknown-node"
	CodeLeaseExpired   = "lease-expired"
	CodeUnknownSession = "unknown-session"
	CodeNoQuorum       = "no-quorum"
	CodeFencedEpoch    = "fenced-epoch"
)

// codeTable pairs each wire code with its sentinel. Order matters only
// for ErrorCode's scan; keep the most common first.
var codeTable = []struct {
	code string
	err  error
}{
	{CodeBadSession, core.ErrBadSession},
	{CodeNoFuture, core.ErrNoFuture},
	{CodeNoImage, core.ErrNoImage},
	{CodeNoAddress, core.ErrNoAddress},
	{CodeUnknownNode, core.ErrUnknownNode},
	{CodeLeaseExpired, core.ErrLeaseExpired},
	{CodeUnknownSession, ErrUnknownSession},
	{CodeNoQuorum, core.ErrNoQuorum},
	{CodeFencedEpoch, core.ErrFencedEpoch},
}

// ErrorCode maps err to its stable wire code, or "" when err wraps no
// known sentinel.
func ErrorCode(err error) string {
	for _, e := range codeTable {
		if errors.Is(err, e.err) {
			return e.code
		}
	}
	return ""
}

// sentinelFor returns the sentinel for a wire code, or nil.
func sentinelFor(code string) error {
	for _, e := range codeTable {
		if e.code == code {
			return e.err
		}
	}
	return nil
}

// decodeError rebuilds a client-side error from a response: the server's
// message text, wrapping the sentinel its code names (when recognized)
// so errors.Is matching survives the round trip.
func decodeError(resp Response) error {
	if sent := sentinelFor(resp.Code); sent != nil {
		return fmt.Errorf("wire: server: %s%.0w", resp.Error, sent)
	}
	return fmt.Errorf("wire: server: %s", resp.Error)
}
