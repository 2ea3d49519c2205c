package core

import (
	"errors"
	"fmt"
	"time"
)

// Strategy names a process-placement policy. It is the lookup key of
// the placement set: JobSpecs, experiment points and CSV rows all carry
// the strategy by name, so a policy travels through the middleware
// without any enum plumbing. The zero value selects Spread (the historical default).
type Strategy string

// The allocation strategies (the placement set of strategies.go).
const (
	// Spread maps one process per host in latency order, wrapping around
	// while capacity remains (paper §4.3, first algorithm).
	Spread Strategy = "spread"
	// Concentrate fills each host up to its capacity in latency order
	// (paper §4.3, second algorithm).
	Concentrate Strategy = "concentrate"
	// Mixed is the extension strategy: round-robin across sites,
	// concentrate within a host.
	Mixed Strategy = "mixed"
	// Random permutes the slist with a seeded generator and spreads over
	// the permuted order — the baseline that ignores latency entirely.
	Random Strategy = "random"
	// MinSites packs the job into the fewest sites that can hold it,
	// concentrating within each chosen site.
	MinSites Strategy = "minsites"
	// CommAware greedily grows a cluster of hosts with minimal estimated
	// pairwise RTT to the already-chosen set.
	CommAware Strategy = "comm-aware"
)

// String returns the command-line name of the strategy.
func (s Strategy) String() string {
	if s == "" {
		return string(Spread)
	}
	return string(s)
}

// ParseStrategy converts a -a command-line value to a Strategy. It
// accepts exactly the names of the placement set, so ParseStrategy,
// Lookup and Names always agree.
func ParseStrategy(name string) (Strategy, error) {
	if _, err := Lookup(name); err != nil {
		return "", err
	}
	if name == "" {
		return Spread, nil
	}
	return Strategy(name), nil
}

// HostSlot is one reserved host, in the latency order of slist.
type HostSlot struct {
	// ID is the host identity (its peer ID).
	ID string
	// Site is the host's site, used only by the Mixed strategy and for
	// reporting; the paper's strategies never look at it.
	Site string
	// P is the owner's limit on processes per MPI application.
	P int
	// Latency is the measured latency from the submitter (diagnostic).
	Latency time.Duration
	// Cores is the host's core count (diagnostic; P usually equals it).
	Cores int
}

// Allocation errors returned by Feasible and Allocate.
var (
	// ErrTooFewHosts: |slist| < r, replicas could not avoid sharing hosts
	// (feasibility condition (a), §4.2 step 6).
	ErrTooFewHosts = errors.New("core: fewer selected hosts than the replication degree")
	// ErrInsufficientCapacity: Σ c_i < n×r (feasibility condition (b)).
	ErrInsufficientCapacity = errors.New("core: selected hosts cannot accommodate all processes")
	// ErrBadRequest: n < 1 or r < 1.
	ErrBadRequest = errors.New("core: invalid request")
)

// Capacity returns c_i = min(P, n): a host must never receive more than n
// processes even if its owner allows more, since the (n+1)-th process of
// an application on one host would necessarily duplicate a rank.
func Capacity(p, n int) int {
	if p < 0 {
		p = 0
	}
	if p < n {
		return p
	}
	return n
}

// Feasible checks the two feasibility conditions of §4.2 step 6:
// (a) |slist| ≥ r and (b) Σ c_i ≥ n×r.
func Feasible(slist []HostSlot, n, r int) error {
	if n < 1 || r < 1 {
		return ErrBadRequest
	}
	if len(slist) < r {
		return fmt.Errorf("%w: have %d, need %d", ErrTooFewHosts, len(slist), r)
	}
	total := 0
	for _, h := range slist {
		total += Capacity(h.P, n)
	}
	if total < n*r {
		return fmt.Errorf("%w: capacity %d < %d processes", ErrInsufficientCapacity, total, n*r)
	}
	return nil
}

// Proc is one mapped process: MPI rank plus replica number.
type Proc struct {
	Rank    int
	Replica int
}

// Assignment is the result of an allocation: how many processes each host
// of slist received and which (rank, replica) pairs they are.
type Assignment struct {
	// Hosts is the slist the allocation was computed over.
	Hosts []HostSlot
	// U[i] is the number of processes mapped to Hosts[i]; hosts with
	// U[i] == 0 have their reservation cancelled (paper §4.3).
	U []int
	// Procs[i] lists the placements on Hosts[i], in rank-assignment
	// order.
	Procs [][]Proc
	// N and R echo the request.
	N, R int
	// Strategy echoes the policy used.
	Strategy Strategy
}

// Allocate distributes n×r processes over slist with the named strategy
// and numbers their ranks: the entry point over the placement set. The
// slist order is significant: it must be the ascending-latency order
// produced by the reservation step.
//
// Beyond dispatching, Allocate is the safety chokepoint the middleware
// submits through: it re-checks feasibility and validates the returned
// assignment, so a policy that forgets Feasible or overfills a host
// cannot smuggle a replica-unsafe placement into a launch.
func Allocate(slist []HostSlot, n, r int, strategy Strategy) (*Assignment, error) {
	if err := Feasible(slist, n, r); err != nil {
		return nil, err
	}
	p, err := Lookup(string(strategy))
	if err != nil {
		return nil, err
	}
	a, err := p.Allocate(slist, n, r)
	if err != nil {
		return nil, err
	}
	if err := a.checkSafety(slist, n, r); err != nil {
		return nil, fmt.Errorf("core: strategy %q produced an invalid assignment: %w", p.Name(), err)
	}
	return a, nil
}

// checkSafety verifies the structural invariants every placement must
// uphold: Hosts echoes slist (same hosts, same order — the launch path
// resolves placements through a.Hosts, so a permuted or duplicated
// Hosts slice would defeat the per-index checks below), one U entry per
// host, u_i ≤ min(P_i, n), exactly n×r processes, and no host carrying
// two replicas of one rank (the §4.2 criterion (b)). Built-in policies
// satisfy this by construction; the check guards against a policy bug.
func (a *Assignment) checkSafety(slist []HostSlot, n, r int) error {
	if len(a.U) != len(slist) || len(a.Procs) != len(slist) || len(a.Hosts) != len(slist) {
		return errors.New("U/Procs/Hosts length does not match slist")
	}
	for i := range slist {
		if a.Hosts[i].ID != slist[i].ID {
			return fmt.Errorf("Hosts[%d] = %q does not echo slist (%q)", i, a.Hosts[i].ID, slist[i].ID)
		}
	}
	total := 0
	pairs := make(map[[2]int]bool, n*r)
	for i, u := range a.U {
		if u < 0 || u > Capacity(slist[i].P, n) {
			return fmt.Errorf("host %d assigned %d processes, capacity %d", i, u, Capacity(slist[i].P, n))
		}
		if len(a.Procs[i]) != u {
			return fmt.Errorf("host %d has %d placements for u=%d", i, len(a.Procs[i]), u)
		}
		seen := make(map[int]bool, u)
		for _, pl := range a.Procs[i] {
			if pl.Rank < 0 || pl.Rank >= n || pl.Replica < 0 || pl.Replica >= r {
				return fmt.Errorf("host %d placement %+v out of range", i, pl)
			}
			if seen[pl.Rank] {
				return fmt.Errorf("host %d carries two replicas of rank %d", i, pl.Rank)
			}
			seen[pl.Rank] = true
			// Globally, every (rank, replica) pair must appear exactly
			// once; with total == n×r and the range checks above, this
			// forces all n×r pairs to be present.
			key := [2]int{pl.Rank, pl.Replica}
			if pairs[key] {
				return fmt.Errorf("(rank %d, replica %d) placed twice", pl.Rank, pl.Replica)
			}
			pairs[key] = true
		}
		total += u
	}
	if total != n*r {
		return fmt.Errorf("placed %d processes, want %d", total, n*r)
	}
	return nil
}

// assignRanks numbers the placed processes with the paper's §4.3
// algorithm: walk slist, hand out ranks 0,1,...,n-1,0,1,... consecutively
// across hosts. Because u_i ≤ c_i ≤ n, a host can never receive the same
// rank twice, which is exactly criterion (b): replicas of a rank always
// land on distinct hosts.
func assignRanks(u []int, n int) [][]Proc {
	procs := make([][]Proc, len(u))
	rank := 0
	copies := make([]int, n) // replica counter per rank
	for i, ui := range u {
		if ui == 0 {
			continue // reservation cancelled for this host
		}
		procs[i] = make([]Proc, 0, ui)
		for l := 0; l < ui; l++ {
			procs[i] = append(procs[i], Proc{Rank: rank, Replica: copies[rank]})
			copies[rank]++
			rank++
			if rank >= n {
				rank = 0
			}
		}
	}
	return procs
}

// UsedHosts returns the number of hosts with at least one process.
func (a *Assignment) UsedHosts() int {
	n := 0
	for _, u := range a.U {
		if u > 0 {
			n++
		}
	}
	return n
}

// HostsBySite counts used hosts per site.
func (a *Assignment) HostsBySite() map[string]int {
	out := make(map[string]int)
	for i, u := range a.U {
		if u > 0 {
			out[a.Hosts[i].Site]++
		}
	}
	return out
}

// ProcsBySite counts mapped processes ("allocated cores") per site.
func (a *Assignment) ProcsBySite() map[string]int {
	out := make(map[string]int)
	for i, u := range a.U {
		if u > 0 {
			out[a.Hosts[i].Site] += u
		}
	}
	return out
}

// TotalProcs returns Σ u_i (always n×r for a successful allocation).
func (a *Assignment) TotalProcs() int {
	n := 0
	for _, u := range a.U {
		n += u
	}
	return n
}
