package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"vmgrid/internal/retry"
	"vmgrid/internal/sim"
)

// Config tunes the client's fault handling. The zero value selects the
// defaults noted on each field.
type Config struct {
	// DialTimeout bounds each connection attempt. Default 5 s.
	DialTimeout time.Duration
	// CallTimeout is the per-attempt read/write deadline of one Call
	// round trip. Default 60 s (sessions pump hours of virtual time but
	// only milliseconds of wall clock).
	CallTimeout time.Duration
	// Retry schedules dial-or-send attempts per Call. Only requests
	// that never reached the server are retried; once a request is on
	// the wire, a lost reply surfaces as an error (resending could
	// double-execute a non-idempotent operation). The zero policy
	// defaults to 4 attempts from 50 ms, capped at 2 s.
	Retry retry.Policy
}

// wireBaseBackoff is the historical base backoff applied when the
// policy leaves Backoff zero.
const wireBaseBackoff = 50 * sim.Millisecond

func (c *Config) fill() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 60 * time.Second
	}
	if c.Retry.MaxAttempts <= 0 {
		c.Retry.MaxAttempts = 4
	}
	if c.Retry.MaxBackoff <= 0 {
		c.Retry.MaxBackoff = 2 * sim.Second
	}
}

// Client talks to a vmgridd server over TCP. A broken connection is
// re-dialed (with capped exponential backoff) on the next Call, so a
// client handle survives server restarts.
type Client struct {
	api
	addr string
	cfg  Config

	mu     sync.Mutex
	conn   net.Conn
	reader *bufio.Scanner
	enc    *json.Encoder
	nextID int64
}

// Dial connects to a server with default fault handling.
func Dial(addr string) (*Client, error) {
	return DialConfig(addr, Config{})
}

// DialConfig connects to a server with explicit fault handling. The
// initial connection is established eagerly so configuration errors
// surface here rather than on the first Call.
func DialConfig(addr string, cfg Config) (*Client, error) {
	cfg.fill()
	c := &Client{addr: addr, cfg: cfg}
	c.api = api{c.Call}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.dropConn()
	return err
}

// ensureConn dials if no live connection exists. Callers hold mu.
func (c *Client) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64<<10), 4<<20)
	c.conn, c.reader, c.enc = conn, scanner, json.NewEncoder(conn)
	return nil
}

// dropConn discards a connection whose stream state is unknown; the
// next attempt re-dials.
func (c *Client) dropConn() {
	if c.conn != nil {
		_ = c.conn.Close()
	}
	c.conn, c.reader, c.enc = nil, nil, nil
}

// Call performs one round trip. params may be nil. The response data is
// unmarshaled into out when out is non-nil. Attempts that fail before
// the request is sent (dial errors, send errors) are retried per the
// configured retry.Policy; failures after the send are returned as-is.
func (c *Client) Call(op string, params any, out any) error {
	raw, err := encodeParams(params)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	policy := c.cfg.Retry
	var lastErr error
	for attempt := 1; attempt <= policy.Attempts(); attempt++ {
		if attempt > 1 {
			time.Sleep(policy.Delay(attempt-1, wireBaseBackoff).Std())
		}
		id, err := c.send(op, raw)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := c.recv(id)
		if err != nil {
			return err
		}
		return decodeResponse(resp, out)
	}
	return lastErr
}

// send writes one request, dialing first if needed, and returns its id.
// A failed send leaves no request on the wire, so it is safe to resend
// on a fresh connection. Callers hold mu.
func (c *Client) send(op string, raw json.RawMessage) (int64, error) {
	if err := c.ensureConn(); err != nil {
		return 0, err
	}
	c.nextID++
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.cfg.CallTimeout))
	if err := c.enc.Encode(Request{ID: c.nextID, Op: op, Params: raw}); err != nil {
		c.dropConn()
		return 0, fmt.Errorf("wire: send: %w", err)
	}
	return c.nextID, nil
}

// recv reads the next response line, which must answer request id,
// within CallTimeout. Callers hold mu.
func (c *Client) recv(id int64) (Response, error) {
	var resp Response
	_ = c.conn.SetReadDeadline(time.Now().Add(c.cfg.CallTimeout))
	if !c.reader.Scan() {
		err := c.reader.Err()
		c.dropConn()
		if err != nil {
			return resp, fmt.Errorf("wire: recv: %w", err)
		}
		return resp, errors.New("wire: connection closed")
	}
	if err := json.Unmarshal(c.reader.Bytes(), &resp); err != nil {
		return resp, fmt.Errorf("wire: bad response: %w", err)
	}
	if resp.ID != id {
		return resp, fmt.Errorf("wire: response id %d for request %d", resp.ID, id)
	}
	return resp, nil
}

// Watch streams count top frames everySec virtual seconds apart,
// invoking fn for each as it arrives. fn returning an error stops the
// watch early (the connection is dropped to discard the remaining
// frames). Watch holds the client for the whole stream — other calls on
// this client block until it finishes. Watch needs the TCP client: the
// in-process Local has no stream to carry the frames.
func (c *Client) Watch(count int, everySec float64, fn func(TopInfo) error) error {
	raw, err := encodeParams(WatchParams{Count: count, EverySec: everySec})
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.send("watch", raw)
	if err != nil {
		return err
	}
	for {
		resp, err := c.recv(id)
		if err != nil {
			return err
		}
		var frame TopInfo
		if err := decodeResponse(resp, &frame); err != nil {
			return err
		}
		if err := fn(frame); err != nil {
			// Abandon the stream: the connection carries frames we will
			// not read, so discard it.
			c.dropConn()
			return err
		}
		if !resp.More {
			return nil
		}
	}
}
