package mpi

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"p2pmpi/internal/transport"
)

// closeLog records, per dialing host, the remote address of every conn
// it dialed, in the order those conns are closed.
type closeLog struct {
	transport.Network
	closed map[string][]string
}

func (n closeLog) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return loggedClose{c, n.closed}, nil
}

type loggedClose struct {
	transport.Conn
	closed map[string][]string
}

func (c loggedClose) Close() error {
	host, _, _ := strings.Cut(c.LocalAddr(), ":")
	c.closed[host] = append(c.closed[host], c.RemoteAddr())
	return c.Conn.Close()
}

// joinAllocs is what one Join (plus its Close) allocates for slot 0 of
// an n×r world, the table optionally shuffled.
func joinAllocs(t *testing.T, n, r int, shuffle bool) float64 {
	w := newWorld(t, n, r)
	slots := slices.Clone(w.slots)
	if shuffle {
		rand.New(rand.NewSource(1)).Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	}
	self := w.slots[0]
	net := w.node(self.HostID)
	return testing.AllocsPerRun(20, func() {
		c, err := Join(Config{Self: self, Slots: slots, N: n, R: r, Net: net, RT: w.s})
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	})
}

// TestJoinAllocsFlat: Join indexes the table in one pass into one
// slice, so what it allocates does not grow with the world — not per
// row, not per rank, whatever the replication degree or row order.
func TestJoinAllocsFlat(t *testing.T) {
	for _, r := range []int{1, 3} {
		small := joinAllocs(t, 8, r, false)
		for _, shuffle := range []bool{false, true} {
			if got := joinAllocs(t, 512, r, shuffle); got > small+allocSlack || got < small-allocSlack {
				t.Errorf("r=%d shuffled=%v: Join allocates %.0f times at n=512, %.0f at n=8", r, shuffle, got, small)
			}
		}
	}
}

// TestJoinRejectsBadTables: a table that does not fill the n×r grid
// exactly once is refused before anything is bound.
func TestJoinRejectsBadTables(t *testing.T) {
	const n, r = 3, 2
	cases := []struct {
		name string
		edit func(slots []Slot) []Slot
	}{
		{"short", func(s []Slot) []Slot { return s[1:] }},
		{"rank past n", func(s []Slot) []Slot { s[5].Rank = n; return s }},
		{"negative rank", func(s []Slot) []Slot { s[5].Rank = -1; return s }},
		{"replica past r", func(s []Slot) []Slot { s[5].Replica = r; return s }},
		{"negative replica", func(s []Slot) []Slot { s[5].Replica = -1; return s }},
		{"cell twice", func(s []Slot) []Slot { s[5].Rank, s[5].Replica = 0, 1; return s }},
	}
	for _, tc := range cases {
		w := newWorld(t, n, r)
		self := w.slots[0]
		net := w.node(self.HostID)
		if _, err := Join(Config{Self: self, Slots: tc.edit(slices.Clone(w.slots)), N: n, R: r, Net: net, RT: w.s}); err == nil {
			t.Errorf("%s: Join accepted the table", tc.name)
		}
		ln, err := net.Listen(self.Addr)
		if err != nil {
			t.Errorf("%s: a refused Join left %s bound: %v", tc.name, self.Addr, err)
			continue
		}
		ln.Close()
	}
}

// TestVirtualMessageZeroAllocs: once the conn is up and the free lists
// are warm, a virtual-size Send → Recv between two ranks allocates
// nothing — not the header, not the inbox item, not a lookup.
func TestVirtualMessageZeroAllocs(t *testing.T) {
	w := newWorld(t, 2, 1)
	var comms []*Comm
	for _, s := range w.slots {
		c, err := Join(Config{Self: s, Slots: w.slots, N: 2, R: 1, Net: w.node(s.HostID), RT: w.s})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		comms = append(comms, c)
	}
	var err error
	roundtrip := func() {
		if e := comms[0].Send(1, 7, Data{Virtual: 1 << 16}); e != nil {
			err = e
		}
		if _, _, e := comms[1].Recv(0, 7); e != nil {
			err = e
		}
	}
	allocs := -1.0
	w.s.Go("driver", func() {
		roundtrip() // dials the conn and warms every free list
		allocs = testing.AllocsPerRun(100, roundtrip)
	})
	w.s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a virtual Send → Recv allocates %.1f times, want 0", allocs)
	}
}

// TestCloseInSlotOrder: after an all-to-all every rank holds a conn to
// every other, and Comm.Close closes them — one FIN each on the wire —
// in slot order, on every run.
func TestCloseInSlotOrder(t *testing.T) {
	const n = 8
	for rep := 0; rep < 20; rep++ {
		w := newWorld(t, n, 1)
		closed := make(map[string][]string)
		w.wrap = func(net transport.Network) transport.Network { return closeLog{net, closed} }
		w.run(t, func(c *Comm) error {
			parts := make([]Data, n)
			for i := range parts {
				parts[i] = Data{Virtual: 1 << 10}
			}
			_, err := c.Alltoall(parts)
			return err
		})
		for _, self := range w.slots {
			var want []string
			for _, s := range w.slots {
				if s.Global != self.Global {
					want = append(want, s.Addr)
				}
			}
			if got := closed[self.HostID]; !slices.Equal(got, want) {
				t.Fatalf("rep %d: %s closed %q, want slot order %q", rep, self.HostID, got, want)
			}
		}
	}
}
