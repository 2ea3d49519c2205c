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

	mu       sync.Mutex       // guards conns, free, seqs, dedup, closed and live's group and log
	conns    []transport.Conn // by position in cfg.Slots, dialed lazily
	free     []*envelope      // recycled inbox carriers
	sendSeq  []uint64         // next seq per destination rank
	lastSeen []uint64         // dedup: last delivered seq per source rank
	grid     []int32          // grid[rank*R+replica] = position in cfg.Slots; immutable after Join, read without mu
	colSeq   uint64           // collective operation counter
	live     *liveness        // replica liveness; nil when R = 1
}

// liveness is what a replicated rank (R > 1) keeps beside the data
// plane: its view of the replica group, the backup's log, and the state
// of two timer chains. The heartbeat chain beats every other replica of
// the rank each heartbeatInterval; the detector chain runs the failure
// detector each failTimeout/2. Neither parks: under virtual time each
// tick is one event, under vtime.Real a timer goroutine.
type liveness struct {
	group   *replica.Group // this rank's replica group; under mu
	sendLog []loggedSend   // backup copy for failover resend; under mu

	// The rest is the chains' own, touched by one step at a time.
	beat          transport.Message // the heartbeat frame, encoded once
	heartbeatTick func()            // c.heartbeatTick, bound once
	monitorTick   func()            // c.monitorTick, bound once
	beatNext      func()            // c.beatNext, bound once
	beatDialed    transport.Dialed  // c.beatDialed, bound once
	next          int               // the sibling being beaten, by replica index
	retry         dialRetry         // the retries of its dial, when it has no conn yet
}

type loggedSend struct {
	dstRank int
	seq     uint64
	tag     int
	data    Data
}

// Join brings the process into the application: it binds the listener,
// starts serving inbound frames and (for r > 1) arms the replica
// heartbeat and failure detector. All processes of the job must
// eventually call Join for communication to proceed; there is no global
// synchronization in Join itself.
func Join(cfg Config) (*Comm, error) {
	if cfg.N <= 0 || cfg.R <= 0 {
		return nil, fmt.Errorf("mpi: bad world size n=%d r=%d", cfg.N, cfg.R)
	}
	if len(cfg.Slots) != cfg.N*cfg.R {
		return nil, fmt.Errorf("mpi: table has %d slots, want %d", len(cfg.Slots), cfg.N*cfg.R)
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
	}
	if cfg.R > 1 {
		c.live = &liveness{
			group: replica.NewGroup(cfg.R, cfg.Self.Replica, failTimeout, cfg.RT.Now()),
			beat: encodeEnvelope(new([]byte), &envelope{
				kind:       kindHeartbeat,
				srcRank:    c.rank,
				srcReplica: cfg.Self.Replica,
				dstRank:    c.rank,
			}),
			heartbeatTick: c.heartbeatTick,
			monitorTick:   c.monitorTick,
			beatNext:      c.beatNext,
			beatDialed:    transport.DialedFunc(c.beatDialed),
		}
	}

	ln, err := cfg.Net.Listen(cfg.Self.Addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: listen %s: %w", cfg.Self.Addr, err)
	}
	c.ln = ln
	transport.Serve(ln, c.deliver)
	if c.live != nil { // heartbeat first, then the detector
		cfg.RT.Schedule(heartbeatInterval, c.live.heartbeatTick)
		cfg.RT.Schedule(failTimeout/2, c.live.monitorTick)
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
	if c.live == nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live.group.IsLeader()
}

// Close tears the communicator down: listener and connections at once,
// the liveness chains at their next tick.
func (c *Comm) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true // the liveness chains stop at their next tick
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
func (c *Comm) deliver(_ transport.Conn, m transport.Message) bool {
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
		if ev.srcRank == c.rank && c.live != nil {
			c.mu.Lock()
			c.live.group.HeartbeatFrom(ev.srcReplica, c.cfg.RT.Now())
			c.mu.Unlock()
		}
		return true
	}
	c.post(&ev)
	return true
}

// connTo returns (dialing lazily) the connection to table position i.
func (c *Comm) connTo(i int32) (transport.Conn, error) {
	if conn, err := c.cachedConn(i); conn != nil || err != nil {
		return conn, err
	}
	addr := c.cfg.Slots[i].Addr
	var retry dialRetry
	for {
		conn, err := c.cfg.Net.Dial(addr)
		if err == nil {
			return c.adopt(i, conn)
		}
		wait, again := retry.failed()
		c.cfg.RT.Sleep(wait)
		if !again {
			return nil, fmt.Errorf("mpi: dial %s: %w", addr, err)
		}
	}
}

// cachedConn returns the connection to table position i, nil when none
// is up yet, or ErrClosed.
func (c *Comm) cachedConn(i int32) (transport.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	return c.conns[i], nil
}

// adopt files a freshly dialed conn under table position i. When the
// Comm closed meanwhile, or another dial got there first (a benign race
// with ourselves), it closes the newcomer instead.
func (c *Comm) adopt(i int32, conn transport.Conn) (transport.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	if prev := c.conns[i]; prev != nil {
		c.mu.Unlock()
		conn.Close()
		return prev, nil
	}
	c.conns[i] = conn
	c.mu.Unlock()
	return conn, nil
}

// dialRetry is the lazy dial's retry policy, for the blocking connTo and
// the heartbeat chain alike: up to dialRetries tries, each failure
// followed by a backoff (the last one too) that starts at dialBackoff
// and doubles.
type dialRetry struct {
	tries   int
	backoff time.Duration
}

// failed counts a failed try. It returns the backoff to wait and
// whether another try follows it.
func (r *dialRetry) failed() (wait time.Duration, again bool) {
	if r.tries == 0 {
		r.backoff = dialBackoff
	}
	wait = r.backoff
	r.backoff *= 2
	r.tries++
	return wait, r.tries < dialRetries
}

// Send transmits data to the given logical rank with a user tag (>= 0).
// Under replication only the group leader actually transmits; backups
// log the message for failover resend. Every replica of the destination
// rank receives its own copy.
func (c *Comm) Send(dst, tag int, d Data) error {
	if tag < 0 {
		return fmt.Errorf("mpi: user tags must be >= 0 (got %d)", tag)
	}
	return c.send(dst, tag, d)
}

// send is the tag-unchecked internal path shared with collectives. It
// checks the rank itself, so that a collective schedule that computes a
// partner outside the communicator fails with ErrInvalidRank instead of
// panicking with c.mu held, which left every later Close of the Comm
// waiting for the lock.
func (c *Comm) send(dst, tag int, d Data) error {
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("%w: send to %d of %d", ErrInvalidRank, dst, c.size)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.sendSeq[dst]++
	seq := c.sendSeq[dst]
	leader := c.live == nil || c.live.group.IsLeader()
	if !leader {
		c.live.sendLog = append(c.live.sendLog, loggedSend{dstRank: dst, seq: seq, tag: tag, data: d})
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

// heartbeatTick starts one heartbeat round: the beat goes to every other
// replica of the rank, in replica order (beatNext).
func (c *Comm) heartbeatTick() {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return
	}
	c.live.next = 0
	c.beatNext()
}

// beatNext beats the round's remaining siblings. A sibling with no conn
// yet is dialed, and the round goes on from the dial's continuation
// (beatDialed); a retry re-dials without looking at the table, as
// connTo's loop does. The last beat re-arms the round one interval
// later.
func (c *Comm) beatNext() {
	l := c.live
	for peers := c.byRank(c.rank); l.next < len(peers); l.next++ {
		p := peers[l.next]
		if c.cfg.Slots[p].Global == c.cfg.Self.Global {
			continue
		}
		if l.retry.tries == 0 {
			conn, err := c.cachedConn(p)
			if err != nil {
				continue
			}
			if conn != nil {
				conn.Send(l.beat)
				continue
			}
		}
		c.cfg.Net.DialFunc(c.cfg.Slots[p].Addr, l.beatDialed)
		return
	}
	c.cfg.RT.Schedule(heartbeatInterval, l.heartbeatTick)
}

// beatDialed continues the round once a sibling's dial ends: it beats
// over the new conn, or backs off and retries, or after the last
// failure backs off and moves on — connTo's policy, without parking.
func (c *Comm) beatDialed(conn transport.Conn, err error) {
	l := c.live
	if err != nil {
		wait, again := l.retry.failed()
		if !again {
			l.retry = dialRetry{}
			l.next++
		}
		c.cfg.RT.Schedule(wait, l.beatNext)
		return
	}
	l.retry = dialRetry{}
	if conn, err = c.adopt(c.byRank(c.rank)[l.next], conn); err == nil {
		conn.Send(l.beat)
	}
	l.next++
	c.beatNext()
}

// monitorTick runs the failure detector and re-arms it. A backup it
// promotes to leadership resends its log so no message is lost; that
// may dial and park, so the resend runs as a process of its own, which
// re-arms the detector when it is done.
func (c *Comm) monitorTick() {
	l := c.live
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	wasLeader := l.group.IsLeader()
	l.group.Suspect(c.cfg.RT.Now())
	promoted := !wasLeader && l.group.IsLeader()
	log := l.sendLog
	if promoted {
		l.sendLog = nil
	}
	c.mu.Unlock()
	if !promoted {
		c.cfg.RT.Schedule(failTimeout/2, l.monitorTick)
		return
	}
	c.cfg.RT.Go(fmt.Sprintf("mpi.resend.r%d", c.rank), func() {
		var scratch []byte // not c.scratch: the rank thread may be sending
		for _, ls := range log {
			c.transmit(ls.dstRank, ls.seq, ls.tag, ls.data, &scratch)
		}
		c.cfg.RT.Schedule(failTimeout/2, l.monitorTick)
	})
}
