// Package core implements the paper's primary contribution: the
// co-allocation strategies of P2P-MPI (§4.3) behind one placement
// interface, plus the live slot ledger the multi-job scheduler plans
// against.
//
// Given the selected host list slist (the n×r lowest-latency reserved
// hosts), an allocation strategy decides how many processes u_i each
// host receives, subject to the capacity rule c_i = min(P_i, n), and
// MPI ranks are then numbered so that no two replicas of one rank
// share a host — the replica-safety criterion that makes the
// replication degree a real fault-tolerance knob.
//
// The placement set is fixed: every policy implements the Placement
// interface and is selectable by name everywhere a Strategy travels —
// JobSpec, the schedulers, both CLIs and the experiment CSVs. Allocate
// is the safety chokepoint: it re-checks feasibility and validates every
// returned assignment, so a policy bug cannot smuggle a replica-unsafe
// placement into a launch.
//
// Two strategies come from the paper:
//
//   - spread: round-robin one process per host, maximising the memory
//     available to each process while keeping locality as a secondary
//     objective (the closest hosts still absorb the remainder first);
//   - concentrate: fill each host to capacity before touching the
//     next, maximising process locality at the risk of memory
//     contention.
//
// A third strategy, mixed, implements the paper's "future work" idea:
// hosts are filled to capacity (locality within a host) but sites are
// visited round-robin (spreading across sites). Beyond the paper, the
// set also holds random (a seeded baseline), minsites (pack into
// the fewest sites) and comm-aware (grow a low-RTT cluster of hosts,
// after Bender et al.'s communication-aware processor allocation).
package core
