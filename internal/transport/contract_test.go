package transport_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"p2pmpi/internal/simnet"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// sendReused sends frames 0..2 from one buffer, overwriting it as soon
// as each Send returns.
func sendReused(c transport.Conn) error {
	buf := make([]byte, len("frame-0"))
	for i := 0; i < 3; i++ {
		copy(buf, fmt.Sprintf("frame-%d", i))
		if err := c.Send(transport.Message{Payload: buf}); err != nil {
			return err
		}
		copy(buf, "clobber")
	}
	return nil
}

// recvAll reads the three frames sendReused sent.
func recvAll(c transport.Conn) ([]string, error) {
	var got []string
	for len(got) < 3 {
		m, err := c.RecvTimeout(5 * time.Second)
		if err != nil {
			return got, err
		}
		got = append(got, string(m.Payload))
	}
	return got, nil
}

var reusedWant = []string{"frame-0", "frame-1", "frame-2"}

// TestSendKeepsNoPayload is the Send contract on both transports: Send
// is done with m.Payload when it returns, so a caller that overwrites
// its buffer right away (mpi encodes every frame into one scratch
// buffer) never changes what the peer receives.
func TestSendKeepsNoPayload(t *testing.T) {
	t.Run("simnet", func(t *testing.T) {
		s := vtime.New()
		defer s.Shutdown()
		n := simnet.New(s, &simnet.StaticTopology{HostSite: map[string]string{"a": "s0", "b": "s1"}, DefLat: time.Millisecond},
			simnet.Config{Seed: 1, NICBps: 1e9})
		ln, err := n.Node("b").Listen("b:1")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		var sendErr, recvErr error
		s.Go("server", func() {
			c, err := ln.Accept()
			if err != nil {
				recvErr = err
				return
			}
			got, recvErr = recvAll(c)
		})
		s.Go("client", func() {
			c, err := n.Node("a").Dial("b:1")
			if err != nil {
				sendErr = err
				return
			}
			sendErr = sendReused(c)
		})
		s.Wait()
		if sendErr != nil || recvErr != nil {
			t.Fatalf("send: %v, recv: %v", sendErr, recvErr)
		}
		if !slices.Equal(got, reusedWant) {
			t.Errorf("received %q, want %q", got, reusedWant)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		ln, err := transport.TCP{}.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		type result struct {
			got []string
			err error
		}
		done := make(chan result, 1)
		go func() {
			c, err := ln.Accept()
			if err != nil {
				done <- result{err: err}
				return
			}
			defer c.Close()
			got, err := recvAll(c)
			done <- result{got, err}
		}()
		c, err := transport.TCP{}.Dial(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := sendReused(c); err != nil {
			t.Fatal(err)
		}
		r := <-done
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !slices.Equal(r.got, reusedWant) {
			t.Errorf("received %q, want %q", r.got, reusedWant)
		}
	})
}
