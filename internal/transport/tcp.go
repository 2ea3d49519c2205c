package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// maxFrame bounds a single framed message (payload bytes on the wire).
// Control messages are tiny; MPI data frames are chunked well below this.
const maxFrame = 64 << 20

// TCP is the real-network implementation of Network. Frames are
// length-prefixed on a stream socket: 4 bytes payload length, 8 bytes
// virtual size, then the payload. Its delivery context is a goroutine
// (see the package doc).
type TCP struct{}

// Listen binds a TCP listener on addr ("host:port", ":0" for ephemeral).
func (TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

// Dial opens a TCP connection to addr.
func (TCP) Dial(addr string) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	return newTCPConn(c), nil
}

// DialFunc is Dial on a goroutine of its own.
func (n TCP) DialFunc(addr string, done Dialed) {
	go func() { done.Dialed(n.Dial(addr)) }()
}

var _ Network = TCP{}

type tcpListener struct {
	l      net.Listener
	closed sync.Once
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	return newTCPConn(c), nil
}

// OnConn starts the listener's accept goroutine, which hands each conn
// to h and ends only once the listener is closed. Any other accept
// error (EMFILE, ECONNABORTED, …) is waited out with a back-off that
// doubles from 5 ms to 1 s, as net/http does, so a transient one cannot
// leave the listener open and deaf.
func (t *tcpListener) OnConn(h func(Conn)) {
	go func() {
		var delay time.Duration
		for {
			switch c, err := t.Accept(); {
			case err == ErrClosed:
				return
			case err != nil:
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				time.Sleep(delay)
			default:
				delay = 0
				h(c)
			}
		}
	}()
}

func (t *tcpListener) Close() error {
	var err error
	t.closed.Do(func() { err = t.l.Close() })
	return err
}

func (t *tcpListener) Addr() string { return t.l.Addr().String() }

type tcpConn struct {
	c       net.Conn
	closed  atomic.Bool // set by Close before the socket goes
	sendMu  sync.Mutex
	recvMu  sync.Mutex
	hdr     [12]byte // per-conn recv header scratch (guarded by recvMu)
	sendHdr [12]byte // guarded by sendMu
}

func newTCPConn(c net.Conn) *tcpConn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency matters more than throughput here
	}
	return &tcpConn{c: c}
}

func (t *tcpConn) Send(m Message) error {
	if len(m.Payload) > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(m.Payload))
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	binary.BigEndian.PutUint32(t.sendHdr[0:4], uint32(len(m.Payload)))
	binary.BigEndian.PutUint64(t.sendHdr[4:12], uint64(m.Virtual))
	if _, err := t.c.Write(t.sendHdr[:]); err != nil {
		return mapNetErr(err)
	}
	if len(m.Payload) > 0 {
		if _, err := t.c.Write(m.Payload); err != nil {
			return mapNetErr(err)
		}
	}
	return nil
}

// OnRecv starts the conn's reader goroutine, which hands r one frame at
// a time, in order, then the peer's close. Once a local Close has
// happened it reports nothing: a handler that closes its own conn hears
// no more, and the read error a Close causes is never taken for the
// peer's close. A timeout is the socket's read deadline for the first
// frame, lifted once that frame is in, so the reply and the deadline
// reach r on the same goroutine and never race.
func (t *tcpConn) OnRecv(r Receiver, timeout time.Duration) {
	if timeout > 0 {
		t.c.SetReadDeadline(time.Now().Add(timeout))
	}
	go func() {
		m, err := t.Recv()
		if timeout > 0 && err == nil {
			t.c.SetReadDeadline(time.Time{})
		}
		for ; !t.closed.Load(); m, err = t.Recv() {
			if r.Receive(m, err); err != nil {
				return
			}
		}
	}()
}

func (t *tcpConn) Recv() (Message, error) { return t.RecvTimeout(-1) }

func (t *tcpConn) RecvTimeout(d time.Duration) (Message, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	if d >= 0 {
		if err := t.c.SetReadDeadline(time.Now().Add(d)); err != nil {
			return Message{}, mapNetErr(err)
		}
		defer t.c.SetReadDeadline(time.Time{})
	}
	if _, err := io.ReadFull(t.c, t.hdr[:]); err != nil {
		return Message{}, mapNetErr(err)
	}
	n := binary.BigEndian.Uint32(t.hdr[0:4])
	if n > maxFrame {
		return Message{}, fmt.Errorf("transport: oversized frame %d", n)
	}
	m := Message{Virtual: int64(binary.BigEndian.Uint64(t.hdr[4:12]))}
	if n > 0 {
		m.Payload = make([]byte, n)
		if _, err := io.ReadFull(t.c, m.Payload); err != nil {
			return Message{}, mapNetErr(err)
		}
	}
	return m, nil
}

func (t *tcpConn) Close() error {
	t.closed.Store(true)
	return t.c.Close()
}

func (t *tcpConn) LocalAddr() string { return t.c.LocalAddr().String() }
func (t *tcpConn) RemoteAddr() string {
	return t.c.RemoteAddr().String()
}

func mapNetErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return ErrTimeout
	}
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrClosed
	}
	return err
}
