package transport

import (
	"sync"
	"testing"
	"time"
)

// wgSpawner runs Serve's loops on goroutines the test can wait for.
type wgSpawner struct{ wg sync.WaitGroup }

func (s *wgSpawner) Go(_ string, fn func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fn()
	}()
}

// TestServeFallbackOverTCP drives Serve on a transport with neither
// callback capability: an accept loop and one Recv loop per conn around
// the same FrameHandler. The endpoint closes when the handler returns
// false and when the peer closes — and every loop ends once the
// listener and the conns are gone.
func TestServeFallbackOverTCP(t *testing.T) {
	ln, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var sp wgSpawner
	var mu sync.Mutex
	opened := 0
	Serve(&sp, ln, "echo", func(c Conn) FrameHandler {
		mu.Lock()
		opened++
		mu.Unlock()
		return func(m Message) bool {
			if string(m.Payload) == "bye" {
				return false
			}
			return c.Send(Message{Payload: append([]byte("re:"), m.Payload...)}) == nil
		}
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

	// A second conn the client closes: the serving loop must end too.
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
	sp.wg.Wait() // accept loop and both Recv loops returned
	if opened != 2 {
		t.Fatalf("open ran %d times, want once per conn", opened)
	}
}

// cbListener and cbConn are minimal callback-capable doubles: the test
// plays the transport's delivery context by calling the installed
// handlers directly.
type cbListener struct {
	Listener
	onConn func(Conn)
}

func (l *cbListener) OnConn(h func(Conn)) { l.onConn = h }

type cbConn struct {
	Conn
	onRecv func(Message, error)
	closes int
}

func (c *cbConn) OnRecv(h func(Message, error)) { c.onRecv = h }
func (c *cbConn) Close() error                  { c.closes++; return nil }

// noSpawner fails the test if Serve starts anything.
type noSpawner struct{ t *testing.T }

func (s noSpawner) Go(name string, _ func()) {
	s.t.Errorf("Serve spawned %q on a callback transport", name)
}

// TestServeCallbackPathSpawnsNothing: with both capabilities present
// Serve is OnConn + OnRecv and no thread of control; the endpoint is
// closed exactly when the handler returns false or the peer's close is
// reported, and at no other time.
func TestServeCallbackPathSpawnsNothing(t *testing.T) {
	ln := &cbListener{}
	var got []string
	Serve(noSpawner{t}, ln, "x", func(Conn) FrameHandler {
		return func(m Message) bool {
			got = append(got, string(m.Payload))
			return string(m.Payload) != "bye"
		}
	})
	if ln.onConn == nil {
		t.Fatal("Serve did not install OnConn")
	}

	a := &cbConn{}
	ln.onConn(a)
	a.onRecv(Message{Payload: []byte("one")}, nil)
	a.onRecv(Message{Payload: []byte("two")}, nil)
	if a.closes != 0 {
		t.Fatal("endpoint closed while its handler kept it open")
	}
	a.onRecv(Message{}, ErrClosed) // peer FIN
	if a.closes != 1 {
		t.Fatalf("peer close: %d closes, want 1", a.closes)
	}

	b := &cbConn{}
	ln.onConn(b)
	b.onRecv(Message{Payload: []byte("bye")}, nil)
	if b.closes != 1 {
		t.Fatalf("handler returned false: %d closes, want 1", b.closes)
	}
	if len(got) != 3 {
		t.Fatalf("handlers saw %q", got)
	}
}
