package reservation

import (
	"errors"
	"sync"
	"time"

	"p2pmpi/internal/proto"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// Reasons sent in ReserveNOK replies.
const (
	ReasonDenied = "submitter denied by owner preferences"
	ReasonBusy   = "J limit reached"
	ReasonClosed = "service shutting down"
)

// ErrUnknownKey is returned when validating or consuming a key the RS
// does not hold.
var ErrUnknownKey = errors.New("reservation: unknown key")

// Config carries the owner preferences and service settings.
type Config struct {
	// Addr is the RS listen address.
	Addr string
	// J is the number of distinct applications the owner accepts to run
	// simultaneously (default 1).
	J int
	// P is the number of processes per application the owner accepts;
	// advertised in ReserveOK. Zero means the host runs no processes.
	P int
	// Deny lists submitter peer IDs refused by the owner.
	Deny []string
	// HoldTTL bounds how long an unstarted reservation is held.
	HoldTTL time.Duration
}

// Service is one peer's Reservation Service daemon.
type Service struct {
	rt  vtime.Runtime
	net transport.Network
	cfg Config

	mu       sync.Mutex
	ln       transport.Listener
	closed   bool
	held     map[string]*hold // by key
	running  map[string]bool  // job keys currently executing
	denySet  map[string]bool
	accepted int64 // stats: total accepted reservations
	rejected int64
	failed   int64 // reservations dropped by host failure (not conflicts)
}

type hold struct {
	key       string
	jobID     string
	submitter string
	expiresAt time.Time
}

// New creates an RS daemon (not yet started).
func New(rt vtime.Runtime, net transport.Network, cfg Config) *Service {
	if cfg.J <= 0 {
		cfg.J = 1
	}
	if cfg.HoldTTL <= 0 {
		cfg.HoldTTL = 60 * time.Second
	}
	// held/running are built on first write and denySet only when the
	// owner actually denies someone — lookups on nil maps are free, and
	// a 1M-host world carries three empty maps per host otherwise.
	var deny map[string]bool
	if len(cfg.Deny) > 0 {
		deny = make(map[string]bool, len(cfg.Deny))
		for _, id := range cfg.Deny {
			deny[id] = true
		}
	}
	return &Service{rt: rt, net: net, cfg: cfg, denySet: deny}
}

// Start binds the listener and starts serving it.
func (s *Service) Start() error {
	ln, err := s.net.Listen(s.cfg.Addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	transport.Serve(s.rt, ln, "rs.conn", s.serveConn)
	return nil
}

// Close stops the daemon. Idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// serveConn returns the frame handler of one inbound connection: one
// Reserve or Cancel in, one reply out of a per-connection scratch
// frame. It runs in the transport's delivery context and never parks.
func (s *Service) serveConn(c transport.Conn) transport.FrameHandler {
	var scratch []byte
	return func(m transport.Message) bool {
		_, req, err := proto.Unmarshal(m.Payload)
		m.Release()
		if err != nil {
			return false
		}
		var reply any
		switch r := req.(type) {
		case *proto.Reserve:
			reply = s.handleReserve(r)
		case *proto.Cancel:
			s.CancelKey(r.Key)
			reply = &proto.CancelAck{Key: r.Key}
		default:
			return false
		}
		scratch, err = proto.AppendMarshal(scratch[:0], reply)
		if err != nil {
			return false
		}
		return c.Send(transport.Message{Payload: scratch}) == nil
	}
}

// handleReserve applies §4.2 step 4: deny-list check, J-limit check,
// then hold the key and answer OK with the host's P value.
func (s *Service) handleReserve(r *proto.Reserve) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.rejected++
		return &proto.ReserveNOK{Key: r.Key, Reason: ReasonClosed}
	}
	if s.denySet[r.Submitter.ID] {
		s.rejected++
		return &proto.ReserveNOK{Key: r.Key, Reason: ReasonDenied}
	}
	s.expireLocked()
	// A duplicated Reserve frame (network-level duplication, or a retry
	// whose first copy was answered) for a key already consumed into a
	// running application is acknowledged without re-holding it — the
	// stale copy must not leak a hold that blocks the J slot until TTL.
	if _, run := s.running[r.Key]; run {
		return &proto.ReserveOK{Key: r.Key, P: s.cfg.P}
	}
	// The J limit counts applications: running ones plus distinct held
	// reservations. Re-reserving with the same key refreshes the hold.
	if _, refresh := s.held[r.Key]; !refresh {
		if len(s.running)+len(s.held) >= s.cfg.J {
			s.rejected++
			return &proto.ReserveNOK{Key: r.Key, Reason: ReasonBusy}
		}
	}
	if s.held == nil {
		s.held = make(map[string]*hold)
	}
	s.held[r.Key] = &hold{
		key:       r.Key,
		jobID:     r.JobID,
		submitter: r.Submitter.ID,
		expiresAt: s.rt.Now().Add(s.cfg.HoldTTL),
	}
	s.accepted++
	return &proto.ReserveOK{Key: r.Key, P: s.cfg.P}
}

func (s *Service) expireLocked() {
	now := s.rt.Now()
	for k, h := range s.held {
		if h.expiresAt.Before(now) {
			delete(s.held, k)
		}
	}
}

// ValidateKey reports whether the RS holds a reservation under this key
// (the launch-time check of §4.2 step 7).
func (s *Service) ValidateKey(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	_, ok := s.held[key]
	return ok
}

// Consume converts a held reservation into a running application. It is
// called by the local MPD when the job actually starts.
func (s *Service) Consume(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	if _, ok := s.held[key]; !ok {
		return ErrUnknownKey
	}
	delete(s.held, key)
	if s.running == nil {
		s.running = make(map[string]bool)
	}
	s.running[key] = true
	return nil
}

// Release ends a running application (or drops a held key), freeing its
// J slot.
func (s *Service) Release(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.running, key)
	delete(s.held, key)
}

// FailAll models the host crashing: every held reservation and running
// application is dropped at once, freeing all J slots for when the host
// comes back. The releases are charged to a dedicated failure counter —
// NOT to the rejected counter — because the reservation-conflict rate
// (rejected / attempts) measures contention between submitters, and a
// host failure is not contention: counting it there would make churn
// sweeps misread infrastructure loss as scheduler pressure. It returns
// the number of reservations dropped.
func (s *Service) FailAll() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.held) + len(s.running)
	s.held = make(map[string]*hold)
	s.running = make(map[string]bool)
	s.failed += int64(n)
	return n
}

// FailedReleases returns the number of reservations dropped by host
// failures (FailAll), kept separate from the rejected counter.
func (s *Service) FailedReleases() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// CancelKey drops a held reservation (remote Cancel or local decision).
func (s *Service) CancelKey(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.held, key)
}

// Held returns the number of held (unstarted) reservations.
func (s *Service) Held() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	return len(s.held)
}

// Running returns the number of running applications.
func (s *Service) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.running)
}

// Stats returns (accepted, rejected) reservation counts.
func (s *Service) Stats() (accepted, rejected int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accepted, s.rejected
}

// Client side: the submitter's RS broker (§4.2 steps 2-5).

// fanIn is the receiving end of a fan-out of Calls: a countdown their
// continuations report to, which wakes the one blocked caller when the
// last answer is in. The continuations run in delivery context on simnet
// and on a goroutine each over TCP, hence the lock.
type fanIn struct {
	mu   sync.Mutex
	left int
	mb   vtime.Mailbox
}

func newFanIn(rt vtime.Runtime, n int) *fanIn {
	f := &fanIn{left: n, mb: rt.NewMailbox()}
	if n == 0 {
		f.mb.Push(struct{}{})
	}
	return f
}

func (f *fanIn) done() {
	f.mu.Lock()
	f.left--
	last := f.left == 0
	f.mu.Unlock()
	if last {
		f.mb.Push(struct{}{})
	}
}

func (f *fanIn) wait() { f.mb.Pop() }

// Offer is one positive answer gathered by Broker, in request order.
type Offer struct {
	Peer proto.PeerInfo
	P    int
}

// BrokerResult separates responders from the silent (dead) and refusing
// peers after a brokering round.
type BrokerResult struct {
	// Offers holds the OK answers, preserving the order in which peers
	// were asked (ascending latency), which becomes the rlist order.
	Offers []Offer
	// Refused lists peers that answered NOK.
	Refused []proto.PeerInfo
	// Dead lists peers that did not answer before the timeout.
	Dead []proto.PeerInfo
}

// Broker fans a Reserve request out to the RS of every candidate peer and
// gathers answers until the timeout (§4.2 step 3: "RS-RS brokering").
// The fan-out is concurrent; the result preserves candidate order.
func Broker(rt vtime.Runtime, net transport.Network, candidates []proto.PeerInfo,
	req proto.Reserve, timeout time.Duration) BrokerResult {

	type answer struct {
		dead bool
		ok   bool
		p    int
	}
	results := make([]answer, len(candidates))
	round := newFanIn(rt, len(candidates))
	payload := proto.MustMarshal(&req) // each request carries the same key
	for i, cand := range candidates {
		i := i
		results[i].dead = true
		transport.Call(rt, net, cand.RSAddr, transport.Message{Payload: payload}, timeout,
			func(reply transport.Message, err error) {
				if err == nil {
					if _, msg, err := proto.Unmarshal(reply.Payload); err == nil {
						// Each continuation writes its own slot, once.
						switch m := msg.(type) {
						case *proto.ReserveOK:
							results[i] = answer{ok: true, p: m.P}
						case *proto.ReserveNOK:
							results[i] = answer{}
						}
					}
					reply.Release()
				}
				round.done()
			})
	}
	// Every Call answers exactly once, within the timeout plus the dial.
	round.wait()

	var out BrokerResult
	for i, cand := range candidates {
		a := results[i]
		switch {
		case a.dead:
			out.Dead = append(out.Dead, cand)
		case a.ok:
			out.Offers = append(out.Offers, Offer{Peer: cand, P: a.p})
		default:
			out.Refused = append(out.Refused, cand)
		}
	}
	return out
}
