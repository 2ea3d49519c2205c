package mpi

import (
	"fmt"
	"sync"
	"time"

	"p2pmpi/internal/replica"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// Comm is one process's communicator over the whole application world.
// A Comm belongs to a single logical thread of execution (the MPI
// process): Send/Recv/collectives must not be called concurrently from
// several goroutines, matching MPI's single-threaded funneled model.
type Comm struct {
	cfg  Config
	rank int
	size int

	ln      transport.Listener
	inbox   vtime.Mailbox // *envelope carriers from deliver and self-delivery
	pend    []envelope    // out-of-match-order buffer (unexpected queue)
	scratch []byte        // the rank thread's frame encode buffer
	closed  bool

	mu       sync.Mutex       // guards conns, free, seqs, log, group, dedup, closed
	conns    []transport.Conn // by position in cfg.Slots, dialed lazily
	free     []*envelope      // recycled inbox carriers
	sendSeq  []uint64         // next seq per destination rank
	lastSeen []uint64         // dedup: last delivered seq per source rank
	group    *replica.Group   // this rank's replica group (r > 1)
	sendLog  []loggedSend     // backup copy for failover resend
	grid     []int32          // grid[rank*R+replica] = position in cfg.Slots; immutable after Join, read without mu
	colSeq   uint64           // collective operation counter
	hbStop   bool             // stops heartbeat/monitor loops
}

type loggedSend struct {
	dstRank int
	seq     uint64
	tag     int
	data    Data
}

// Join brings the process into the application: it binds the listener,
// starts serving inbound frames and (for r > 1) the replica heartbeat. All
// processes of the job must eventually call Join for communication to
// proceed; there is no global synchronization in Join itself.
func Join(cfg Config) (*Comm, error) {
	if cfg.N <= 0 || cfg.R <= 0 {
		return nil, fmt.Errorf("mpi: bad world size n=%d r=%d", cfg.N, cfg.R)
	}
	if len(cfg.Slots) != cfg.N*cfg.R {
		return nil, fmt.Errorf("mpi: table has %d slots, want %d", len(cfg.Slots), cfg.N*cfg.R)
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 200 * time.Millisecond
	}
	if cfg.FailTimeout <= 0 {
		cfg.FailTimeout = time.Second
	}
	if cfg.DialRetries <= 0 {
		cfg.DialRetries = 10
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = 20 * time.Millisecond
	}

	grid, err := slotGrid(cfg.Slots, cfg.N, cfg.R)
	if err != nil {
		return nil, err
	}
	c := &Comm{
		cfg:      cfg,
		rank:     cfg.Self.Rank,
		size:     cfg.N,
		inbox:    cfg.RT.NewMailbox(),
		conns:    make([]transport.Conn, len(cfg.Slots)),
		sendSeq:  make([]uint64, cfg.N),
		lastSeen: make([]uint64, cfg.N),
		grid:     grid,
		group:    replica.NewGroup(cfg.R, cfg.Self.Replica, cfg.FailTimeout, cfg.RT.Now()),
	}

	ln, err := cfg.Net.Listen(cfg.Self.Addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: listen %s: %w", cfg.Self.Addr, err)
	}
	c.ln = ln
	deliver := transport.FrameHandler(c.deliver) // one method value for every inbound conn
	transport.Serve(ln, func(transport.Conn) transport.FrameHandler { return deliver })
	if cfg.R > 1 {
		cfg.RT.Go(fmt.Sprintf("mpi.hb.r%d", c.rank), c.heartbeatLoop)
		cfg.RT.Go(fmt.Sprintf("mpi.fd.r%d", c.rank), c.monitorLoop)
	}
	return c, nil
}

// slotGrid indexes the table once: grid[rank*r+replica] is that slot's
// position in slots. Every row must fall inside the n×r grid and no
// cell may be filled twice; with n×r rows that fills every cell.
func slotGrid(slots []Slot, n, r int) ([]int32, error) {
	grid := make([]int32, n*r)
	for i := range grid {
		grid[i] = -1
	}
	for i, s := range slots {
		if s.Rank < 0 || s.Rank >= n || s.Replica < 0 || s.Replica >= r {
			return nil, fmt.Errorf("mpi: table row %d (rank %d replica %d) outside the %d×%d grid", i, s.Rank, s.Replica, n, r)
		}
		cell := &grid[s.Rank*r+s.Replica]
		if *cell >= 0 {
			return nil, fmt.Errorf("mpi: table holds rank %d replica %d twice", s.Rank, s.Replica)
		}
		*cell = int32(i)
	}
	return grid, nil
}

// byRank returns rank's replicas as table positions, in replica order.
func (c *Comm) byRank(rank int) []int32 {
	return c.grid[rank*c.cfg.R : (rank+1)*c.cfg.R]
}

// Rank returns this process's logical MPI rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of logical processes n.
func (c *Comm) Size() int { return c.size }

// Replica returns this process's replica index within its rank group.
func (c *Comm) Replica() int { return c.cfg.Self.Replica }

// IsLeader reports whether this replica currently transmits for its rank.
func (c *Comm) IsLeader() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.group.IsLeader()
}

// Close tears the communicator down: listener, connections and loops.
func (c *Comm) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.hbStop = true
	conns := c.conns
	c.conns = nil
	c.mu.Unlock()

	c.ln.Close()
	for _, conn := range conns { // slot order: the FINs leave in table order
		if conn != nil {
			conn.Close()
		}
	}
	c.inbox.Close()
	return nil
}

// post hands ev to the inbox in a recycled carrier: a pointer boxes into
// the mailbox's any without an allocation.
func (c *Comm) post(ev *envelope) {
	c.mu.Lock()
	var p *envelope
	if n := len(c.free); n > 0 {
		p, c.free = c.free[n-1], c.free[:n-1]
	} else {
		p = new(envelope)
	}
	c.mu.Unlock()
	*p = *ev
	c.inbox.Push(p)
}

// take unpacks and recycles a carrier popped from the inbox, then
// performs replication dedup: ok is false for an envelope whose
// sequence number does not advance its source stream.
func (c *Comm) take(v any) (ev envelope, ok bool) {
	p := v.(*envelope)
	ev, *p = *p, envelope{} // the free list pins no payload
	c.mu.Lock()
	defer c.mu.Unlock()
	c.free = append(c.free, p)
	if c.cfg.R == 1 {
		return ev, true
	}
	if ev.srcRank < 0 || ev.srcRank >= len(c.lastSeen) || ev.seq <= c.lastSeen[ev.srcRank] {
		return ev, false // a duplicate after failover, or a corrupt source
	}
	c.lastSeen[ev.srcRank] = ev.seq
	return ev, true
}

// deliver moves one inbound frame to the inbox. It is the frame handler
// of every inbound connection and runs in the transport's delivery
// context (transport.Serve): it never blocks and never closes the
// endpoint — that is the peer's move.
func (c *Comm) deliver(m transport.Message) bool {
	ev, err := decodeEnvelope(m)
	if err != nil {
		m.Release()
		return true // corrupt frame: drop
	}
	if len(m.Payload) == headerLen {
		// Nothing aliases a header-only frame (all virtual-size traffic,
		// every heartbeat): the transport can have its copy back.
		m.Release()
	}
	if ev.kind == kindHeartbeat {
		c.mu.Lock()
		if ev.srcRank == c.rank {
			c.group.HeartbeatFrom(ev.srcReplica, c.cfg.RT.Now())
		}
		c.mu.Unlock()
		return true
	}
	c.post(&ev)
	return true
}

// connTo returns (dialing lazily) the connection to table position i.
func (c *Comm) connTo(i int32) (transport.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if conn := c.conns[i]; conn != nil {
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()

	addr := c.cfg.Slots[i].Addr
	var conn transport.Conn
	var err error
	backoff := c.cfg.DialBackoff
	for try := 0; try < c.cfg.DialRetries; try++ {
		conn, err = c.cfg.Net.Dial(addr)
		if err == nil {
			break
		}
		c.cfg.RT.Sleep(backoff)
		backoff *= 2
	}
	if err != nil {
		return nil, fmt.Errorf("mpi: dial %s: %w", addr, err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	if prev := c.conns[i]; prev != nil { // lost a benign race with ourselves
		c.mu.Unlock()
		conn.Close()
		return prev, nil
	}
	c.conns[i] = conn
	c.mu.Unlock()
	return conn, nil
}

// Send transmits data to the given logical rank with a user tag (>= 0).
// Under replication only the group leader actually transmits; backups
// log the message for failover resend. Every replica of the destination
// rank receives its own copy.
func (c *Comm) Send(dst, tag int, d Data) error {
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("%w: send to %d of %d", ErrInvalidRank, dst, c.size)
	}
	if tag < 0 {
		return fmt.Errorf("mpi: user tags must be >= 0 (got %d)", tag)
	}
	return c.send(dst, tag, d)
}

// send is the tag-unchecked internal path shared with collectives.
func (c *Comm) send(dst, tag int, d Data) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.sendSeq[dst]++
	seq := c.sendSeq[dst]
	leader := c.group.IsLeader()
	if !leader {
		c.sendLog = append(c.sendLog, loggedSend{dstRank: dst, seq: seq, tag: tag, data: d})
	}
	c.mu.Unlock()

	if !leader {
		return nil // a backup computes but does not transmit
	}
	return c.transmit(dst, seq, tag, d, &c.scratch)
}

// transmit delivers one envelope to every replica of dst, encoding each
// frame into the caller's *scratch (Send keeps no reference to it).
func (c *Comm) transmit(dst int, seq uint64, tag int, d Data, scratch *[]byte) error {
	ev := envelope{
		kind:       kindData,
		srcRank:    c.rank,
		srcReplica: c.cfg.Self.Replica,
		dstRank:    dst,
		seq:        seq,
		tag:        tag,
		data:       d,
	}
	targets := c.byRank(dst)
	var firstErr error
	for _, t := range targets {
		if c.cfg.Slots[t].Global == c.cfg.Self.Global {
			// Self delivery: bypass the network.
			cp := ev
			if len(d.Bytes) > 0 {
				cp.data.Bytes = append([]byte(nil), d.Bytes...)
			}
			c.post(&cp)
			continue
		}
		conn, err := c.connTo(t)
		if err != nil {
			// The replica may be dead; its MPD reports that separately.
			if firstErr == nil && len(targets) == 1 {
				firstErr = err
			}
			continue
		}
		if err := conn.Send(encodeEnvelope(scratch, &ev)); err != nil && firstErr == nil && len(targets) == 1 {
			firstErr = err
		}
	}
	return firstErr
}

// Recv blocks until a message matching (src, tag) arrives; wildcards
// AnySource and AnyTag match anything. It returns the data and envelope
// status.
func (c *Comm) Recv(src, tag int) (Data, Status, error) {
	return c.RecvTimeout(src, tag, -1)
}

// RecvTimeout is Recv bounded by d (< 0 blocks forever).
func (c *Comm) RecvTimeout(src, tag int, d time.Duration) (Data, Status, error) {
	var deadline time.Time
	hasDeadline := d >= 0
	if hasDeadline {
		deadline = c.cfg.RT.Now().Add(d)
	}
	// First scan the unexpected-message buffer.
	for i, ev := range c.pend {
		if matches(ev, src, tag) {
			c.pend = append(c.pend[:i], c.pend[i+1:]...)
			return ev.data, Status{Source: ev.srcRank, Tag: ev.tag}, nil
		}
	}
	for {
		wait := time.Duration(-1)
		if hasDeadline {
			wait = deadline.Sub(c.cfg.RT.Now())
			if wait < 0 {
				return Data{}, Status{}, ErrTimeout
			}
		}
		v, err := c.inbox.PopTimeout(wait)
		if err == vtime.ErrTimeout {
			return Data{}, Status{}, ErrTimeout
		}
		if err != nil {
			return Data{}, Status{}, ErrClosed
		}
		ev, ok := c.take(v)
		if !ok {
			continue // duplicate after failover
		}
		if matches(ev, src, tag) {
			return ev.data, Status{Source: ev.srcRank, Tag: ev.tag}, nil
		}
		c.pend = append(c.pend, ev)
	}
}

func matches(ev envelope, src, tag int) bool {
	if src != AnySource && ev.srcRank != src {
		return false
	}
	switch {
	case tag == AnyTag:
		// The wildcard matches user messages only, never the internal
		// (negative) collective tags.
		return ev.tag >= 0
	default:
		return ev.tag == tag
	}
}

// heartbeatLoop broadcasts liveness to the rank group's other replicas.
func (c *Comm) heartbeatLoop() {
	// Every beat is the same frame: encode it once.
	beat := encodeEnvelope(new([]byte), &envelope{
		kind:       kindHeartbeat,
		srcRank:    c.rank,
		srcReplica: c.cfg.Self.Replica,
		dstRank:    c.rank,
	})
	for {
		c.cfg.RT.Sleep(c.cfg.HeartbeatInterval)
		c.mu.Lock()
		if c.hbStop {
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		for _, p := range c.byRank(c.rank) {
			if c.cfg.Slots[p].Global == c.cfg.Self.Global {
				continue
			}
			if conn, err := c.connTo(p); err == nil {
				conn.Send(beat)
			}
		}
	}
}

// monitorLoop runs the failure detector; on promotion to leadership it
// resends the backup log so no message is lost.
func (c *Comm) monitorLoop() {
	for {
		c.cfg.RT.Sleep(c.cfg.FailTimeout / 2)
		c.mu.Lock()
		if c.hbStop {
			c.mu.Unlock()
			return
		}
		wasLeader := c.group.IsLeader()
		c.group.Suspect(c.cfg.RT.Now())
		promoted := !wasLeader && c.group.IsLeader()
		var log []loggedSend
		if promoted {
			log = append(log, c.sendLog...)
			c.sendLog = nil
		}
		c.mu.Unlock()
		if promoted {
			var scratch []byte // not c.scratch: under vtime.Real this runs beside the rank thread
			for _, ls := range log {
				c.transmit(ls.dstRank, ls.seq, ls.tag, ls.data, &scratch)
			}
		}
	}
}
