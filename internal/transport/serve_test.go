package transport

import (
	"maps"
	"net"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestServeOverTCP drives Serve on TCP: the accept goroutine and one
// reader goroutine per conn around the same FrameHandler, which is
// handed each frame's own conn. The endpoint closes when the handler
// returns false and when the peer closes; every goroutine ends once the
// listener and the conns are gone.
func TestServeOverTCP(t *testing.T) {
	before := runtime.NumGoroutine()
	ln, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	served := map[Conn]int{} // frames handled, per conn
	Serve(ln, func(c Conn, m Message) bool {
		mu.Lock()
		served[c]++
		mu.Unlock()
		if string(m.Payload) == "bye" {
			return false
		}
		return c.Send(Message{Payload: append([]byte("re:"), m.Payload...)}) == nil
	})

	// Two exchanges on one conn, then the handler hangs up on "bye".
	c, err := TCP{}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []string{"a", "b"} {
		c.Send(Message{Payload: []byte(req)})
		m, err := c.RecvTimeout(5 * time.Second)
		if err != nil || string(m.Payload) != "re:"+req {
			t.Fatalf("reply to %q: %q, %v", req, m.Payload, err)
		}
	}
	c.Send(Message{Payload: []byte("bye")})
	if _, err := c.RecvTimeout(5 * time.Second); err != ErrClosed {
		t.Fatalf("after bye: %v, want the server's close", err)
	}
	c.Close()

	// A second conn the client closes: its reader must end too.
	c2, err := TCP{}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c2.Send(Message{Payload: []byte("c")})
	reply, err := c2.RecvTimeout(5 * time.Second)
	if err != nil || string(reply.Payload) != "re:c" {
		t.Fatalf("second conn: %q, %v", reply.Payload, err)
	}
	c2.Close()
	ln.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left over, want the accept goroutine and both readers gone", runtime.NumGoroutine()-before)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if frames := slices.Sorted(maps.Values(served)); !slices.Equal(frames, []int{1, 3}) {
		t.Fatalf("frames handled per conn: %v, want one conn with 3 (a, b, bye) and one with 1 (c)", frames)
	}
}

// flakyListener is a net.Listener whose first Accept fails the way a
// full file table does; the accept goroutine meets that failure first.
type flakyListener struct {
	net.Listener
	failed bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if !l.failed {
		l.failed = true
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestTCPAcceptSurvivesTransientError: an accept error other than the
// listener's Close is waited out, and the next conn is still served.
func TestTCPAcceptSurvivesTransientError(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &tcpListener{l: &flakyListener{Listener: inner}}
	defer ln.Close()
	Serve(ln, func(c Conn, m Message) bool { return c.Send(m) == nil })
	reply, err := RequestReply(TCP{}, ln.Addr(), Message{Payload: []byte("ping")}, 5*time.Second)
	if err != nil || string(reply.Payload) != "ping" {
		t.Fatalf("after a transient accept error: %q, %v", reply.Payload, err)
	}
}
