package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/vtime"
)

// ErrSaturated is returned for a job whose demand never fit the ledger's
// residual capacity within its retry budget: the scheduler refused to
// spend brokering traffic on a request that could not be placed.
var ErrSaturated = errors.New("sched: not enough free slots for the job")

// ErrClosed is returned by Enqueue after Close.
var ErrClosed = errors.New("sched: scheduler closed")

// Submitter runs one job to completion — *mpd.MPD is the production
// implementation; tests substitute fakes.
type Submitter interface {
	Submit(spec mpd.JobSpec) (*mpd.JobResult, error)
}

// Config tunes a Scheduler.
type Config struct {
	// Workers bounds the number of jobs in flight at once (default 4).
	Workers int
	// Retries is the per-job contention retry budget (default 3): a
	// submission that fails for lack of hosts is re-run after a backoff
	// this many times before the job is failed. Set -1 to disable
	// retrying.
	Retries int
	// Backoff is the base pause before a retry, doubled every attempt
	// and stretched by a deterministic jitter (default 2s).
	Backoff time.Duration
	// Seed drives the backoff jitter.
	Seed int64
	// IsContention classifies a Submit error as retryable contention.
	// The default treats mpd.ErrNotEnoughPeers — the "lost the
	// reservation race" outcome — as contention and everything else
	// (unknown program, launch failure) as final.
	IsContention func(error) bool
	// QuotaRate enables per-tenant admission quotas: each tenant earns
	// QuotaRate slot-seconds of budget per virtual second into a token
	// bucket capped at QuotaBurst, and every finished job debits
	// N×R×runtime from its tenant's bucket. While a tenant's balance is
	// negative its pending jobs queue behind every in-budget tenant's,
	// regardless of priority. 0 disables quotas entirely (the exact
	// legacy admission path).
	QuotaRate float64
	// QuotaBurst caps a tenant's accumulated budget in slot-seconds
	// (default 3600×QuotaRate — one hour of accrual).
	QuotaBurst float64
	// Preempt arms the preemption primitive: a queued job that cannot
	// be admitted for lack of slots may checkpoint-kill the weakest
	// strictly-lower-priority running job — with quotas on, only if the
	// preemptor's tenant is in budget and the victim's is not. The
	// victim's reservation returns through the normal release path, its
	// burned slot-seconds are charged to its tenant, and the job fails
	// with mpd.ErrPreempted (not counted as contention).
	Preempt bool
}

// jPerHost is the owner J limit the live ledger view assumes: the
// experiments run every host with J = 1.
const jPerHost = 1

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 2 * time.Second
	}
	if c.IsContention == nil {
		c.IsContention = func(err error) bool {
			return errors.Is(err, mpd.ErrNotEnoughPeers) || errors.Is(err, ErrSaturated)
		}
	}
	if c.QuotaRate > 0 && c.QuotaBurst <= 0 {
		c.QuotaBurst = 3600 * c.QuotaRate
	}
}

// Job is the scheduler's handle for one queued submission. Its fields
// are written by the worker that runs it and must only be read after the
// job came back through Wait.
type Job struct {
	// ID numbers jobs in enqueue order, starting at 0.
	ID int
	// Spec is the submission as enqueued.
	Spec mpd.JobSpec
	// Tenant tags the submitting tenant for per-tenant accounting (open
	// workloads; 0 for plain Enqueue).
	Tenant int
	// Priority orders admission: a free worker always picks the highest
	// pending priority, ties broken by enqueue order. All-equal
	// priorities (plain Enqueue) degenerate to exact FIFO.
	Priority int
	// Result and Err record the terminal outcome.
	Result *mpd.JobResult
	Err    error
	// Attempts counts Submit calls (plus admission checks that backed
	// off); Conflicts counts the attempts lost to contention.
	Attempts  int
	Conflicts int
	// Wasted accumulates the runtime spent inside attempts that ended
	// in an error — brokering rounds that lost the race, launches onto
	// hosts that died, runs a mid-flight failure forced to re-book. The
	// churn experiments multiply it by the job's process count to
	// charge re-booked slot-hours.
	Wasted time.Duration
	// OwnedSlotSec and BorrowedSlotSec split the job's N×R×runtime
	// slot-second consumption into the part covered by the tenant's
	// quota balance and the part borrowed beyond it. Both stay zero
	// with quotas off.
	OwnedSlotSec, BorrowedSlotSec float64
	// Enqueued, Started and Finished are runtime timestamps; Started is
	// the first attempt's begin.
	Enqueued, Started, Finished time.Time
}

// Wait returns the job's completion-to-enqueue latency.
func (j *Job) Latency() time.Duration { return j.Finished.Sub(j.Enqueued) }

// Stats aggregates scheduler counters.
type Stats struct {
	Enqueued    int
	Completed   int // jobs finished successfully
	Failed      int // jobs finished with an error
	Attempts    int // Submit calls plus admission backoffs
	Conflicts   int // attempts lost to slot contention
	Throttled   int // admission pops where an over-budget job was bypassed
	Preemptions int // running jobs killed to make room
}

// Scheduler drives concurrent job submissions through a bounded worker
// pool over a shared live view of host slots.
type Scheduler struct {
	rt     vtime.Runtime
	sub    Submitter
	ledger *core.Ledger
	cfg    Config

	queue vtime.Mailbox // admission tokens, one per pending job
	done  vtime.Mailbox // *Job, terminal

	mu      sync.Mutex
	pending jobHeap // jobs awaiting a worker, max-priority first
	rng     *rand.Rand
	stats   Stats
	nextID  int
	started bool
	closed  bool
	live    int // running workers

	buckets map[int]*bucket     // per-tenant quota state (quotas on)
	running map[int]*runningJob // in-flight preemptable jobs by ID
}

// bucket is one tenant's token-bucket quota: a slot-second balance
// accrued lazily at QuotaRate per virtual second, capped at QuotaBurst.
type bucket struct {
	balance float64
	last    time.Time
}

// runningJob pairs an in-flight job with its live preemption handle.
type runningJob struct {
	job *Job
	pre *mpd.Preemption
}

// jobHeap orders pending jobs by priority (desc), then enqueue order
// (asc). With uniform priorities the pop order is exactly the push
// order, so the closed-system experiments see the same FIFO schedule
// they always did.
type jobHeap []*Job

// jobBefore is the admission total order (priority desc, enqueue asc)
// as a standalone predicate — the heap and the quota-aware scan share
// it.
func jobBefore(a, b *Job) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.ID < b.ID
}

func (h jobHeap) Len() int            { return len(h) }
func (h jobHeap) Less(i, j int) bool  { return jobBefore(h[i], h[j]) }
func (h jobHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x interface{}) { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// New builds a scheduler over the given hosts (nil hosts = unconstrained
// ledger, used when capacities are unknown). Call Start to spawn the
// workers.
func New(rt vtime.Runtime, sub Submitter, hosts []core.HostSlot, cfg Config) *Scheduler {
	cfg.fillDefaults()
	return &Scheduler{
		rt:      rt,
		sub:     sub,
		ledger:  core.NewLedger(hosts, jPerHost),
		cfg:     cfg,
		queue:   rt.NewMailbox(),
		done:    rt.NewMailbox(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		buckets: make(map[int]*bucket),
		running: make(map[int]*runningJob),
	}
}

// Ledger exposes the live slot view (experiments and tests).
func (s *Scheduler) Ledger() *core.Ledger { return s.ledger }

// Stats returns a copy of the counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Start spawns the worker pool. Idempotent.
func (s *Scheduler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	s.live = s.cfg.Workers
	for i := 0; i < s.cfg.Workers; i++ {
		i := i
		s.rt.Go(fmt.Sprintf("sched.worker.%d", i), func() { s.worker() })
	}
}

// Enqueue queues a job for execution and returns its handle, or nil
// after Close. It never blocks and may be called from any goroutine.
func (s *Scheduler) Enqueue(spec mpd.JobSpec) *Job {
	return s.EnqueuePri(spec, 0, 0)
}

// EnqueuePri queues a job with a tenant tag and an admission priority:
// among pending jobs, a free worker always takes the highest priority,
// FIFO within a priority level. Open-system drivers use this to feed
// multi-tenant arrival streams; Enqueue is EnqueuePri(spec, 0, 0).
func (s *Scheduler) EnqueuePri(spec mpd.JobSpec, tenant, priority int) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	job := &Job{ID: s.nextID, Spec: spec, Tenant: tenant, Priority: priority, Enqueued: s.rt.Now()}
	s.nextID++
	s.stats.Enqueued++
	heap.Push(&s.pending, job)
	// Push a token under the mutex: Close also takes it, so a handle is
	// only ever returned for a job that reached the queue before it
	// closed (Push on a closed mailbox would silently drop the job). The
	// mailbox stays the FIFO wake-up channel; the heap decides which job
	// the woken worker actually runs.
	s.queue.Push(struct{}{})
	return job
}

// Close stops admission. Queued jobs still run to completion; workers
// exit once the queue drains, after which Wait unblocks.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.queue.Close()
}

// Wait pops k completed jobs (blocking; must run on a runtime actor or
// goroutine). It returns fewer than k only when the scheduler was closed
// and every queued job already completed.
func (s *Scheduler) Wait(k int) []*Job {
	jobs, _ := s.WaitTimeout(k, -1)
	return jobs
}

// WaitTimeout is Wait bounded by a total deadline; d < 0 waits forever.
func (s *Scheduler) WaitTimeout(k int, d time.Duration) ([]*Job, error) {
	var deadline time.Time
	if d >= 0 {
		deadline = s.rt.Now().Add(d)
	}
	var out []*Job
	for len(out) < k {
		wait := time.Duration(-1)
		if d >= 0 {
			if wait = deadline.Sub(s.rt.Now()); wait < 0 {
				return out, vtime.ErrTimeout
			}
		}
		v, err := s.done.PopTimeout(wait)
		if err != nil {
			return out, err
		}
		out = append(out, v.(*Job))
	}
	return out, nil
}

func (s *Scheduler) worker() {
	defer func() {
		s.mu.Lock()
		s.live--
		last := s.live == 0
		s.mu.Unlock()
		if last {
			s.done.Close()
		}
	}()
	for {
		if _, ok := s.queue.Pop(); !ok {
			return
		}
		// One token per pending job, so the heap is never empty here.
		s.mu.Lock()
		job := s.popLocked()
		s.mu.Unlock()
		s.runJob(job)
		job.Finished = s.rt.Now()
		s.mu.Lock()
		if job.Err == nil {
			s.stats.Completed++
		} else {
			s.stats.Failed++
		}
		s.mu.Unlock()
		s.done.Push(job)
	}
}

// popLocked takes the next job off the pending heap. With quotas off
// this is exactly heap.Pop — the legacy schedule. With quotas on, jobs
// from tenants with a non-negative balance outrank over-budget ones:
// the worker takes the best in-budget job under the usual
// priority-then-FIFO order and falls back to the over-budget pool only
// when no tenant can pay. Bypassing the heap's global best counts one
// Throttled event. Caller holds s.mu.
func (s *Scheduler) popLocked() *Job {
	if s.cfg.QuotaRate <= 0 {
		return heap.Pop(&s.pending).(*Job)
	}
	bestAll, bestIn := -1, -1
	for i, j := range s.pending {
		if bestAll < 0 || jobBefore(j, s.pending[bestAll]) {
			bestAll = i
		}
		if s.bucketFor(j.Tenant).balance >= 0 {
			if bestIn < 0 || jobBefore(j, s.pending[bestIn]) {
				bestIn = i
			}
		}
	}
	pick := bestAll
	if bestIn >= 0 {
		pick = bestIn
	}
	if pick != bestAll {
		s.stats.Throttled++
	}
	return heap.Remove(&s.pending, pick).(*Job)
}

// bucketFor returns tenant's quota bucket, accrued to now. New tenants
// start with a full burst. Caller holds s.mu; quotas must be on.
func (s *Scheduler) bucketFor(tenant int) *bucket {
	now := s.rt.Now()
	b, ok := s.buckets[tenant]
	if !ok {
		b = &bucket{balance: s.cfg.QuotaBurst, last: now}
		s.buckets[tenant] = b
		return b
	}
	b.balance += s.cfg.QuotaRate * now.Sub(b.last).Seconds()
	if b.balance > s.cfg.QuotaBurst {
		b.balance = s.cfg.QuotaBurst
	}
	b.last = now
	return b
}

// charge debits a finished attempt's N×R×held slot-seconds from the
// job's tenant bucket, splitting the cost into owned (covered by the
// balance on hand) and borrowed (beyond it) on the job handle. No-op
// with quotas off.
func (s *Scheduler) charge(job *Job, held time.Duration) {
	if s.cfg.QuotaRate <= 0 || held <= 0 {
		return
	}
	cost := float64(job.Spec.N*job.Spec.R) * held.Seconds()
	s.mu.Lock()
	b := s.bucketFor(job.Tenant)
	avail := b.balance
	if avail < 0 {
		avail = 0
	}
	owned := cost
	if owned > avail {
		owned = avail
	}
	b.balance -= cost
	job.OwnedSlotSec += owned
	job.BorrowedSlotSec += cost - owned
	s.mu.Unlock()
}

// tryPreempt kills the weakest eligible running job on behalf of a
// starved pending one: the victim must hold strictly lower priority,
// and with quotas on the preemptor's tenant must be in budget while the
// victim's is over. Victims are ordered lowest priority first, then
// youngest — evict the cheapest, most recently admitted work. The kill
// reuses the crash/release path, so the reservation returns without
// conflict accounting; the victim fails with mpd.ErrPreempted and its
// burned slot-seconds stay charged to its tenant.
func (s *Scheduler) tryPreempt(job *Job) bool {
	s.mu.Lock()
	if s.cfg.QuotaRate > 0 && s.bucketFor(job.Tenant).balance < 0 {
		s.mu.Unlock()
		return false // over-budget jobs do not get to evict anyone
	}
	var victim *runningJob
	for _, r := range s.running {
		if r.job.Priority >= job.Priority {
			continue
		}
		if s.cfg.QuotaRate > 0 && s.bucketFor(r.job.Tenant).balance >= 0 {
			continue // in-budget work is safe
		}
		if victim == nil || preemptBefore(r.job, victim.job) {
			victim = r
		}
	}
	if victim == nil {
		s.mu.Unlock()
		return false
	}
	delete(s.running, victim.job.ID) // one kill per victim
	s.stats.Preemptions++
	s.mu.Unlock()
	victim.pre.Kill()
	return true
}

// preemptBefore orders preemption victims (total, so victim choice is
// deterministic whatever order the running set is scanned in).
func preemptBefore(a, b *Job) bool {
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.ID > b.ID
}

// runJob executes one job with admission control against the live
// ledger and backoff-retry on contention.
func (s *Scheduler) runJob(job *Job) {
	need := job.Spec.N * job.Spec.R
	job.Started = s.rt.Now()
	for attempt := 0; ; attempt++ {
		job.Attempts++
		s.mu.Lock()
		s.stats.Attempts++
		s.mu.Unlock()

		var err error
		var res *mpd.JobResult
		attemptStart := s.rt.Now()
		if free := s.ledger.FreeProcs(); free >= 0 && free < need {
			// Admission control: the live view cannot place this job, so
			// back off without brokering.
			err = fmt.Errorf("%w: need %d processes, %d free", ErrSaturated, need, free)
		} else {
			res, err = s.attempt(job)
		}
		if err != nil {
			job.Wasted += s.rt.Now().Sub(attemptStart)
		}
		if err == nil || !s.cfg.IsContention(err) || attempt >= s.cfg.Retries {
			job.Result, job.Err = res, err
			return
		}
		job.Conflicts++
		s.mu.Lock()
		s.stats.Conflicts++
		d := s.cfg.Backoff << uint(attempt)
		d += time.Duration(s.rng.Int63n(int64(d)/2 + 1)) // deterministic jitter
		s.mu.Unlock()
		if s.cfg.Preempt && errors.Is(err, ErrSaturated) {
			// Starved for slots: try to evict a weaker over-budget
			// running job so the backoff retry finds room.
			s.tryPreempt(job)
		}
		s.rt.Sleep(d)
	}
}

// attempt runs one Submit with the ledger charged for the job's
// lifetime: busy hosts are excluded from booking, the assignment is
// acquired the moment allocation succeeds, and released when the job
// finishes — successfully or not.
func (s *Scheduler) attempt(job *Job) (*mpd.JobResult, error) {
	spec := job.Spec
	if busy := s.ledger.Busy(); len(busy) > 0 {
		spec.Exclude = append(append([]string(nil), spec.Exclude...), busy...)
	}
	var acquired *core.Assignment
	var heldFrom time.Time
	userHook := spec.OnAllocated
	spec.OnAllocated = func(a *core.Assignment) {
		acquired = a
		heldFrom = s.rt.Now()
		s.ledger.Acquire(a)
		if userHook != nil {
			userHook(a)
		}
	}
	if s.cfg.Preempt {
		spec.Preemptable = true
		userPre := spec.OnPreempt
		spec.OnPreempt = func(p *mpd.Preemption) {
			s.mu.Lock()
			s.running[job.ID] = &runningJob{job: job, pre: p}
			s.mu.Unlock()
			if userPre != nil {
				userPre(p)
			}
		}
	}
	res, err := s.sub.Submit(spec)
	if s.cfg.Preempt {
		s.mu.Lock()
		delete(s.running, job.ID)
		s.mu.Unlock()
	}
	if acquired != nil {
		s.ledger.Release(acquired)
		s.charge(job, s.rt.Now().Sub(heldFrom))
	}
	return res, err
}
