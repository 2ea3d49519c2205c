package core

import (
	"hash/fnv"
	"math/rand"
	"sort"
)

// This file holds the placement policies. The paper's spread/concentrate
// (§4.3) and the mixed extension keep their original u-vector
// algorithms; random, minsites and comm-aware go beyond the paper. All
// six produce u-vectors with u_i ≤ min(P_i, n) and number ranks through
// assignRanks, so every policy inherits the replica-safety criterion.

// placements is the placement set, by name. It is built once and never
// changes.
var placements = func() map[string]Placement {
	m := make(map[string]Placement)
	for _, p := range []Placement{
		uvecPlacement{name: string(Spread), u: func(slist []HostSlot, caps []int, total int) []int {
			return spread(caps, total)
		}},
		uvecPlacement{name: string(Concentrate), u: func(slist []HostSlot, caps []int, total int) []int {
			return concentrate(caps, total)
		}},
		uvecPlacement{name: string(Mixed), u: func(slist []HostSlot, caps []int, total int) []int {
			return mixed(slist, caps, total)
		}},
		uvecPlacement{name: string(MinSites), u: minSites},
		RandomPlacement{},
		CommAwarePlacement{},
	} {
		m[p.Name()] = p
	}
	return m
}()

// capacities returns c_i = min(P_i, n) for every host of slist.
func capacities(slist []HostSlot, n int) []int {
	caps := make([]int, len(slist))
	for i, h := range slist {
		caps[i] = Capacity(h.P, n)
	}
	return caps
}

// finish assembles the Assignment for a computed u-vector.
func finish(slist []HostSlot, u []int, n, r int, name string) *Assignment {
	return &Assignment{
		Hosts:    append([]HostSlot(nil), slist...),
		U:        u,
		Procs:    assignRanks(u, n),
		N:        n,
		R:        r,
		Strategy: Strategy(name),
	}
}

// uvecPlacement adapts a u-vector algorithm to the Placement interface:
// feasibility check, capacity capping and rank numbering are shared.
type uvecPlacement struct {
	name string
	u    func(slist []HostSlot, caps []int, total int) []int
}

func (p uvecPlacement) Name() string { return p.name }

func (p uvecPlacement) Allocate(slist []HostSlot, n, r int) (*Assignment, error) {
	if err := Feasible(slist, n, r); err != nil {
		return nil, err
	}
	return finish(slist, p.u(slist, capacities(slist, n), n*r), n, r, p.name), nil
}

// spread is the paper's first algorithm: visit hosts in slist order
// repeatedly, placing one process per visit while the host has remaining
// capacity, until d = n×r processes are placed.
func spread(caps []int, total int) []int {
	u := make([]int, len(caps))
	d := 0
	for d < total {
		progress := false
		for i := 0; i < len(caps) && d < total; i++ {
			if u[i] < caps[i] {
				u[i]++
				d++
				progress = true
			}
		}
		if !progress { // unreachable when Feasible passed; defensive
			panic("core: spread allocation stuck")
		}
	}
	return u
}

// concentrate is the paper's second algorithm: give each host
// min(c_i, remaining) processes in slist order.
func concentrate(caps []int, total int) []int {
	u := make([]int, len(caps))
	d := 0
	for i := 0; i < len(caps) && d < total; i++ {
		take := caps[i]
		if take > total-d {
			take = total - d
		}
		u[i] = take
		d += take
	}
	if d < total {
		panic("core: concentrate allocation stuck")
	}
	return u
}

// mixed visits sites round-robin (in order of each site's first, i.e.
// lowest-latency, host) and fills one whole host per visit.
func mixed(slist []HostSlot, caps []int, total int) []int {
	u := make([]int, len(slist))
	// Per-site queues of host indices, preserving latency order.
	var siteOrder []string
	hostsOf := make(map[string][]int)
	for i, h := range slist {
		if _, ok := hostsOf[h.Site]; !ok {
			siteOrder = append(siteOrder, h.Site)
		}
		hostsOf[h.Site] = append(hostsOf[h.Site], i)
	}
	d := 0
	for d < total {
		progress := false
		for _, site := range siteOrder {
			if d >= total {
				break
			}
			q := hostsOf[site]
			// Pop saturated hosts at the front of this site's queue.
			for len(q) > 0 && u[q[0]] >= caps[q[0]] {
				q = q[1:]
			}
			hostsOf[site] = q
			if len(q) == 0 {
				continue
			}
			i := q[0]
			take := caps[i] - u[i]
			if take > total-d {
				take = total - d
			}
			u[i] += take
			d += take
			if take > 0 {
				progress = true
			}
		}
		if !progress {
			panic("core: mixed allocation stuck")
		}
	}
	return u
}

// minSites packs the job into as few sites as a greedy cover allows:
// sites are taken in descending total-capacity order (ties broken by the
// position of the site's lowest-latency host), and hosts within a chosen
// site are filled to capacity in slist order. It minimises the number of
// WAN boundaries the application straddles, at the price of ignoring the
// latency ranking across sites.
func minSites(slist []HostSlot, caps []int, total int) []int {
	type site struct {
		first int // index of the site's first (lowest-latency) host
		cap   int
		hosts []int
	}
	var sites []*site
	byName := make(map[string]*site)
	for i, h := range slist {
		s := byName[h.Site]
		if s == nil {
			s = &site{first: i}
			byName[h.Site] = s
			sites = append(sites, s)
		}
		s.cap += caps[i]
		s.hosts = append(s.hosts, i)
	}
	// Capacity desc, ties by the site's first (lowest-latency) host:
	// deterministic for any slist.
	sort.SliceStable(sites, func(i, j int) bool {
		if sites[i].cap != sites[j].cap {
			return sites[i].cap > sites[j].cap
		}
		return sites[i].first < sites[j].first
	})
	u := make([]int, len(slist))
	d := 0
	for _, s := range sites {
		for _, i := range s.hosts {
			if d >= total {
				return u
			}
			take := caps[i]
			if take > total-d {
				take = total - d
			}
			u[i] = take
			d += take
		}
	}
	if d < total {
		panic("core: minsites allocation stuck")
	}
	return u
}

// RandomPlacement is the seeded baseline: it permutes the slist with a
// deterministic generator and spreads one process per host over the
// permuted order. The generator is seeded from Seed XOR an FNV hash of
// the request (host IDs, n, r), so identical inputs always produce
// identical placements — a requirement of the replayable simulation —
// while different requests decorrelate.
type RandomPlacement struct {
	// Seed perturbs the per-request derived seed; zero is a valid seed.
	Seed int64
}

// Name implements Placement.
func (RandomPlacement) Name() string { return string(Random) }

// Allocate implements Placement.
func (p RandomPlacement) Allocate(slist []HostSlot, n, r int) (*Assignment, error) {
	if err := Feasible(slist, n, r); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	for _, hs := range slist {
		h.Write([]byte(hs.ID))
		h.Write([]byte{0})
	}
	h.Write([]byte{byte(n), byte(n >> 8), byte(r)})
	rng := rand.New(rand.NewSource(p.Seed ^ int64(h.Sum64())))
	perm := rng.Perm(len(slist))

	caps := capacities(slist, n)
	total := n * r
	u := make([]int, len(slist))
	d := 0
	for d < total {
		progress := false
		for _, i := range perm {
			if d >= total {
				break
			}
			if u[i] < caps[i] {
				u[i]++
				d++
				progress = true
			}
		}
		if !progress {
			panic("core: random allocation stuck")
		}
	}
	return finish(slist, u, n, r, string(Random)), nil
}

// CommAwarePlacement grows a communication-tight host cluster in the
// spirit of Bender et al.'s communication-aware processor allocation:
// starting from the lowest-latency host, it repeatedly picks the host
// with the smallest total estimated RTT to the already-chosen set and
// fills it to capacity.
//
// Pairwise RTT between hosts a and b is estimated from the submitter's
// star measurements: zero within a site, Latency(a)+Latency(b) across
// sites (traffic relayed through the backbone the submitter also
// traverses). With per-site aggregates the score of a candidate h is
//
//	score(h) = Latency(h)·(m − m_site(h)) + (L − L_site(h))
//
// where m and L count and sum the latencies of chosen hosts (m_site,
// L_site restricted to h's site), making each greedy step O(1) per
// candidate and the whole allocation O(|slist| · hosts-chosen).
type CommAwarePlacement struct{}

// Name implements Placement.
func (CommAwarePlacement) Name() string { return string(CommAware) }

// Allocate implements Placement.
func (CommAwarePlacement) Allocate(slist []HostSlot, n, r int) (*Assignment, error) {
	if err := Feasible(slist, n, r); err != nil {
		return nil, err
	}
	caps := capacities(slist, n)
	total := n * r
	u := make([]int, len(slist))

	var m float64 // chosen hosts
	var l float64 // Σ latency over chosen hosts
	mSite := make(map[string]float64)
	lSite := make(map[string]float64)

	d := 0
	for d < total {
		best, bestScore := -1, 0.0
		for i, h := range slist {
			if u[i] > 0 || caps[i] == 0 {
				continue
			}
			lat := float64(h.Latency)
			score := lat // first pick: closest host to the submitter
			if m > 0 {
				score = lat*(m-mSite[h.Site]) + (l - lSite[h.Site])
			}
			if best == -1 || score < bestScore {
				best, bestScore = i, score
			}
		}
		if best == -1 {
			panic("core: comm-aware allocation stuck")
		}
		take := caps[best]
		if take > total-d {
			take = total - d
		}
		u[best] = take
		d += take
		hb := slist[best]
		m++
		l += float64(hb.Latency)
		mSite[hb.Site]++
		lSite[hb.Site] += float64(hb.Latency)
	}
	return finish(slist, u, n, r, string(CommAware)), nil
}
