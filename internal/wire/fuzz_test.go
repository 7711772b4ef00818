package wire

import (
	"bufio"
	"encoding/json"
	"net"
	"testing"
)

// fuzzMaxLines bounds how many response lines one input may produce; a
// long watch stream is cut there by closing the connection.
const fuzzMaxLines = 64

// FuzzServerConn feeds arbitrary newline-separated request lines to one
// server connection over net.Pipe, on a server holding the demo fabric.
// Whatever the input, the daemon must not panic and every response line
// must decode as a Response.
func FuzzServerConn(f *testing.F) {
	f.Fuzz(func(t *testing.T, input []byte) {
		srv := NewServer(1)
		if err := buildDemo(NewLocal(srv).api); err != nil {
			t.Fatal(err)
		}
		client, conn := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.handleConn(conn)
		}()
		// The closing ping marks the end of the input's responses.
		req := append(append([]byte{}, input...), "\n"+`{"id":-1,"op":"ping"}`+"\n"...)
		written := make(chan struct{})
		go func() {
			defer close(written)
			_, _ = client.Write(req) // Close unblocks it if the server stops reading
		}()
		lines := bufio.NewScanner(client)
		lines.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for n := 0; n < fuzzMaxLines && lines.Scan(); n++ {
			var resp Response
			if err := json.Unmarshal(lines.Bytes(), &resp); err != nil {
				t.Fatalf("response line %q does not decode: %v", lines.Bytes(), err)
			}
			if resp.ID == -1 && resp.Error == "" {
				break
			}
		}
		_ = client.Close()
		<-served
		<-written
	})
}
