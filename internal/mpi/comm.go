package mpi

import (
	"fmt"
	"sort"
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

	ln     transport.Listener
	inbox  vtime.Mailbox // envelopes from deliver
	pend   []envelope    // out-of-match-order buffer (unexpected queue)
	closed bool

	mu       sync.Mutex // guards conns, seqs, log, group, dedup, closed
	conns    map[string]transport.Conn
	sendSeq  []uint64       // next seq per destination rank
	lastSeen []uint64       // dedup: last delivered seq per source rank
	group    *replica.Group // this rank's replica group (r > 1)
	sendLog  []loggedSend   // backup copy for failover resend
	byRank   map[int][]Slot // rank -> its replica slots; immutable after Join, read without mu
	colSeq   uint64         // collective operation counter
	hbStop   bool           // stops heartbeat/monitor loops
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

	c := &Comm{
		cfg:      cfg,
		rank:     cfg.Self.Rank,
		size:     cfg.N,
		inbox:    cfg.RT.NewMailbox(),
		conns:    make(map[string]transport.Conn),
		sendSeq:  make([]uint64, cfg.N),
		lastSeen: make([]uint64, cfg.N),
		byRank:   make(map[int][]Slot),
		group:    replica.NewGroup(cfg.R, cfg.Self.Replica, cfg.FailTimeout, cfg.RT.Now()),
	}
	for _, s := range cfg.Slots {
		c.byRank[s.Rank] = append(c.byRank[s.Rank], s)
	}
	for r := range c.byRank {
		slots := c.byRank[r]
		sort.Slice(slots, func(i, j int) bool { return slots[i].Replica < slots[j].Replica })
	}

	ln, err := cfg.Net.Listen(cfg.Self.Addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: listen %s: %w", cfg.Self.Addr, err)
	}
	c.ln = ln
	transport.Serve(cfg.RT, ln, "mpi.pump", func(transport.Conn) transport.FrameHandler { return c.deliver })
	if cfg.R > 1 {
		cfg.RT.Go(fmt.Sprintf("mpi.hb.r%d", c.rank), c.heartbeatLoop)
		cfg.RT.Go(fmt.Sprintf("mpi.fd.r%d", c.rank), c.monitorLoop)
	}
	return c, nil
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
	conns := make([]transport.Conn, 0, len(c.conns))
	for _, conn := range c.conns {
		conns = append(conns, conn)
	}
	c.conns = make(map[string]transport.Conn)
	c.mu.Unlock()

	c.ln.Close()
	for _, conn := range conns {
		conn.Close()
	}
	c.inbox.Close()
	return nil
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
	c.inbox.Push(ev)
	return true
}

// connTo returns (dialing lazily) the connection to a slot address.
func (c *Comm) connTo(addr string) (transport.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if conn, ok := c.conns[addr]; ok {
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()

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
	if prev, ok := c.conns[addr]; ok { // lost a benign race with ourselves
		c.mu.Unlock()
		conn.Close()
		return prev, nil
	}
	c.conns[addr] = conn
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
	return c.transmit(dst, seq, tag, d)
}

// transmit delivers one envelope to every replica of dst.
func (c *Comm) transmit(dst int, seq uint64, tag int, d Data) error {
	ev := envelope{
		kind:       kindData,
		srcRank:    c.rank,
		srcReplica: c.cfg.Self.Replica,
		dstRank:    dst,
		seq:        seq,
		tag:        tag,
		data:       d,
	}
	targets := c.byRank[dst]
	var firstErr error
	for _, t := range targets {
		if t.Global == c.cfg.Self.Global {
			// Self delivery: bypass the network.
			cp := ev
			if len(d.Bytes) > 0 {
				cp.data.Bytes = append([]byte(nil), d.Bytes...)
			}
			c.inbox.Push(cp)
			continue
		}
		conn, err := c.connTo(t.Addr)
		if err != nil {
			// The replica may be dead; its MPD reports that separately.
			if firstErr == nil && len(targets) == 1 {
				firstErr = err
			}
			continue
		}
		if err := conn.Send(encodeEnvelope(ev)); err != nil && firstErr == nil && len(targets) == 1 {
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
		ev := v.(envelope)
		if !c.accept(&ev) {
			continue // duplicate after failover
		}
		if matches(ev, src, tag) {
			return ev.data, Status{Source: ev.srcRank, Tag: ev.tag}, nil
		}
		c.pend = append(c.pend, ev)
	}
}

// accept performs replication dedup: drop any envelope whose sequence
// number does not advance its source stream.
func (c *Comm) accept(ev *envelope) bool {
	if c.cfg.R == 1 {
		return true
	}
	if ev.srcRank < 0 || ev.srcRank >= len(c.lastSeen) {
		return false // a source outside the world: corrupt frame
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev.seq <= c.lastSeen[ev.srcRank] {
		return false
	}
	c.lastSeen[ev.srcRank] = ev.seq
	return true
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
	for {
		c.cfg.RT.Sleep(c.cfg.HeartbeatInterval)
		c.mu.Lock()
		if c.hbStop {
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		peers := c.byRank[c.rank]
		ev := envelope{
			kind:       kindHeartbeat,
			srcRank:    c.rank,
			srcReplica: c.cfg.Self.Replica,
			dstRank:    c.rank,
		}
		for _, p := range peers {
			if p.Global == c.cfg.Self.Global {
				continue
			}
			if conn, err := c.connTo(p.Addr); err == nil {
				conn.Send(encodeEnvelope(ev))
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
			for _, ls := range log {
				c.transmit(ls.dstRank, ls.seq, ls.tag, ls.data)
			}
		}
	}
}
