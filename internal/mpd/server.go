package mpd

import (
	"fmt"
	"strings"

	"p2pmpi/internal/mpi"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/transport"
)

// serve answers one frame of an inbound connection: one request in, at
// most one reply out. It is the MPD's transport.FrameHandler,
// runs in the transport's delivery context and must not park; false
// drops the connection. The request is released once decoded and the
// reply is built in a lent scratch buffer (transport.GetScratch), so a
// served exchange keeps nothing per connection or per daemon: the
// steady-state probe load of a large world allocates nothing here.
func (m *MPD) serve(c transport.Conn, msg transport.Message) bool {
	if m.isClosed() {
		msg.Release()
		return false // a closed daemon hangs up instead of answering
	}
	var reply any
	switch proto.Peek(msg.Payload) {
	case proto.TPing:
		var ping proto.Ping
		err := proto.DecodeInto(msg.Payload, &ping)
		msg.Release()
		if err != nil {
			return false
		}
		m.mu.Lock()
		m.stats.PingsAnswered++
		m.mu.Unlock()
		reply = &proto.Pong{Nonce: ping.Nonce}
	case proto.TJobPing:
		var jping proto.JobPing
		err := proto.DecodeInto(msg.Payload, &jping)
		msg.Release()
		if err != nil {
			return false
		}
		reply = &proto.JobPong{Nonce: jping.Nonce, Known: m.hostsJob(jping.JobID)}
	default:
		_, req, err := proto.Unmarshal(msg.Payload)
		msg.Release()
		if err != nil {
			return false
		}
		switch r := req.(type) {
		case *proto.Prepare:
			reply = m.handlePrepare(r)
		case *proto.Start:
			reply = m.handleStart(r)
		case *proto.Cancel:
			m.abortUnstarted(r.Key)
			reply = &proto.CancelAck{Key: r.Key}
		case *proto.KillJob:
			m.handleKill(r.Key)
			reply = &proto.KillAck{Key: r.Key}
		case *proto.JobDone:
			m.handleJobDone(r)
			return true // one-way
		default:
			return false
		}
	}
	sp := transport.GetScratch()
	frame, err := proto.AppendMarshal((*sp)[:0], reply)
	if err == nil {
		err = c.Send(transport.Message{Payload: frame})
	}
	transport.PutScratch(sp, frame)
	return err == nil
}

// handlePrepare is §4.2 step 7 (the remote side of the launch): verify
// the hash key against the local RS, enforce the gatekeeper limits, and
// pre-bind every local process's MPI endpoint so that the submitter's
// Start can assume all listeners exist.
func (m *MPD) handlePrepare(p *proto.Prepare) *proto.Ready {
	nok := func(format string, args ...any) *proto.Ready {
		return &proto.Ready{Key: p.Key, OK: false, Reason: fmt.Sprintf(format, args...)}
	}
	// Idempotency: a duplicate Prepare for a job already prepared here —
	// a network-duplicated frame, or a submitter retry whose first Ready
	// was lost — re-acks OK. Checked before key validation, because the
	// first Prepare consumed the reservation and re-validating would
	// wrongly fail the retry of a launch that actually succeeded.
	m.mu.Lock()
	if m.jobs[p.Key] != nil {
		m.mu.Unlock()
		return &proto.Ready{Key: p.Key, OK: true}
	}
	m.mu.Unlock()
	if !m.rs.ValidateKey(p.Key) {
		return nok("unknown or expired reservation key")
	}
	program, ok := m.cfg.Programs[p.Program]
	if !ok {
		return nok("program %q not in registry", p.Program)
	}

	// Collect this host's slots from the table. The decoded table is
	// this host's own, so every process joins with it as is.
	var local []mpi.Slot
	table := p.Table
	for _, s := range table {
		if s.HostID == m.cfg.Self.ID {
			local = append(local, s)
		}
	}
	if len(local) == 0 {
		return nok("no slots for this host in the table")
	}
	if len(local) > m.cfg.P {
		return nok("gatekeeper: %d slots exceed owner limit P=%d", len(local), m.cfg.P)
	}

	if err := m.rs.Consume(p.Key); err != nil {
		return nok("consume: %v", err)
	}

	job := &localJob{key: p.Key, jobID: p.JobID, prep: p, program: program}
	for _, slot := range local {
		env := &Env{
			Rank: slot.Rank, Size: p.N, Replica: slot.Replica, R: p.R,
			Slot: slot, Table: table,
			HostID: m.cfg.Self.ID, CoLocated: len(local),
			Args: p.Args, RT: m.rt, Net: m.net,
			Profile: m.cfg.Profile,
		}
		if p.Preemptable {
			env.kill = m.rt.NewMailbox()
		}
		comm, err := mpi.Join(mpi.Config{
			Self: slot, Slots: table, N: p.N, R: p.R,
			Net: m.net, RT: m.rt,
		})
		env.comm, env.joinErr = comm, err
		if err != nil {
			// Unwind: close what we already bound, free the reservation.
			for _, e := range job.envs {
				if e.comm != nil {
					e.comm.Close()
				}
			}
			m.rs.Release(p.Key)
			return nok("join slot g%d: %v", slot.Global, err)
		}
		job.envs = append(job.envs, env)
	}

	m.mu.Lock()
	if m.jobs == nil {
		m.jobs = make(map[string]*localJob)
	}
	m.jobs[p.Key] = job
	m.stats.JobsHosted++
	m.mu.Unlock()
	return &proto.Ready{Key: p.Key, OK: true}
}

// abortUnstarted drops a prepared-but-unstarted job: the submitter is
// unwinding a launch whose fan-out partially failed (a co-reserved host
// died between Acquire and Prepare). Without this, a host that already
// Consumed its reservation into a running application would leak its J
// slot forever — under churn, every failed launch would permanently
// shrink the platform. Started jobs are left alone: Start wins the
// race and the normal completion path releases the slot.
func (m *MPD) abortUnstarted(key string) {
	m.mu.Lock()
	job := m.jobs[key]
	if job == nil || job.started {
		m.mu.Unlock()
		return
	}
	delete(m.jobs, key)
	m.mu.Unlock()
	for _, e := range job.envs {
		if e.comm != nil {
			e.comm.Close()
		}
	}
	m.rs.Release(key)
}

// handleStart is phase two: actually run the program on every local slot.
func (m *MPD) handleStart(s *proto.Start) *proto.StartAck {
	m.mu.Lock()
	job := m.jobs[s.Key]
	if job != nil && !job.started {
		job.started = true
		m.mu.Unlock()
		m.rt.Go("mpd.job."+m.cfg.Self.ID, func() { m.runJob(job) })
		return &proto.StartAck{Key: s.Key}
	}
	m.mu.Unlock()
	return &proto.StartAck{Key: s.Key}
}

// handleKill checkpoint-kills this host's slots of a preemptable job.
// Idempotent by construction: an unknown key — the job already
// finished, the host crashed, or the frame was duplicated — is a no-op
// (the caller acks regardless). A prepared-but-unstarted job unwinds
// exactly like a Cancel; a running one has each local process's kill
// channel closed, so its SleepPreemptible returns ErrPreempted and the
// normal runJob completion path reports the failed slots and releases
// the reservation exactly once.
func (m *MPD) handleKill(key string) {
	m.mu.Lock()
	job := m.jobs[key]
	started := job != nil && job.started
	m.mu.Unlock()
	if job == nil {
		return
	}
	if !started {
		m.abortUnstarted(key)
		return
	}
	for _, e := range job.envs {
		if e.kill != nil {
			e.kill.Close()
		}
	}
}

// runJob executes all local processes, reports JobDone to the submitter
// and releases the reservation.
func (m *MPD) runJob(job *localJob) {
	type outcome struct {
		idx int
		err error
	}
	mb := m.rt.NewMailbox()
	for i, env := range job.envs {
		i, env := i, env
		m.rt.Go(fmt.Sprintf("proc.%s.g%d", m.cfg.Self.ID, env.Slot.Global), func() {
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("program panic: %v", r)
					}
				}()
				err = job.program(env)
			}()
			if env.comm != nil {
				env.comm.Close()
			}
			mb.Push(outcome{idx: i, err: err})
		})
	}

	done := &proto.JobDone{JobID: job.jobID, HostID: m.cfg.Self.ID}
	results := make([]proto.SlotResult, len(job.envs))
	for range job.envs {
		v, ok := mb.Pop()
		if !ok { // mailbox closed: daemon shutting down
			break
		}
		o := v.(outcome)
		env := job.envs[o.idx]
		sr := proto.SlotResult{
			Rank:    env.Rank,
			Replica: env.Replica,
			OK:      o.err == nil,
			Output:  append([]byte(nil), env.Out.Bytes()...),
		}
		if o.err != nil {
			sr.Err = o.err.Error()
		}
		results[o.idx] = sr
	}
	done.Results = results

	// A crash between Start and completion aborts the job: the host was
	// dead while the processes "ran", so it must not report results the
	// submitter's failure detector already wrote off (the host may have
	// been revived meanwhile — a reboot does not resurrect processes).
	// The RS was reset by Crash, so there is nothing to release either.
	m.mu.Lock()
	aborted := job.aborted
	m.mu.Unlock()
	if aborted {
		return
	}

	// Report first, then drop the job: a detector probe racing the
	// completion report must still find the job alive, or the submitter
	// could write off work that was actually delivered.
	// (Fire-and-forget; the submitter times out if we are dead.)
	payload := proto.MustMarshal(done)
	if c, err := m.net.Dial(job.prep.SubmitterMPD); err == nil {
		c.Send(transport.Message{Payload: payload})
		c.Close()
	}

	m.rs.Release(job.key)
	m.mu.Lock()
	delete(m.jobs, job.key)
	m.mu.Unlock()

	// JobDone is one-way, so under injected loss the single report can
	// vanish and the submitter writes off a host that delivered. With
	// retries enabled the report is blindly retransmitted on the same
	// backoff schedule — no ack frame, no wire change; the submitter
	// dedups by slot, so extra copies are no-ops.
	m.resendDone(job.prep.SubmitterMPD, payload, 1)
}

// resendDone is retransmission k of a completion report and the chain
// to the next: a backoff, then a one-way Call (timeout 0: dial, send,
// close), then the same again until RPCRetries are spent.
func (m *MPD) resendDone(addr string, payload []byte, k int) {
	if k > m.cfg.RPCRetries {
		return
	}
	m.rt.Schedule(m.retryDelay(addr, k), func() {
		if m.isClosed() {
			return
		}
		transport.Call(m.net, addr, transport.Message{Payload: payload}, 0,
			func(transport.Message, error) { m.resendDone(addr, payload, k+1) })
	})
}

// hostsJob reports whether this peer still hosts a live job with the
// given job ID — the answering half of the detector's heartbeat. A
// crash wipes the job table, so a rebooted host truthfully answers
// false even though its transport is reachable again.
func (m *MPD) hostsJob(jobID string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, job := range m.jobs {
		if job.jobID == jobID {
			return true
		}
	}
	return false
}

// handleJobDone routes a completion report to the waiting Submit call.
func (m *MPD) handleJobDone(d *proto.JobDone) {
	m.mu.Lock()
	mb := m.pendingDone[d.JobID]
	m.mu.Unlock()
	if mb != nil {
		mb.Push(d)
	}
}

// hostOf extracts the host part of an "host:port" address.
func hostOf(addr string) string {
	if i := strings.LastIndex(addr, ":"); i > 0 {
		return addr[:i]
	}
	return addr
}
