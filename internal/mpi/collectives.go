package mpi

import "fmt"

// Combiner merges two message bodies during a reduction. It must be
// associative and commutative (the algorithms reorder operands). For
// modelled (virtual-size) runs a combiner typically just propagates the
// size; for real data it decodes, reduces and re-encodes.
type Combiner func(a, b Data) Data

// collective op codes, folded into internal (negative) tags.
const (
	opBarrier = iota
	opBcast
	opReduce
	opAllreduce
	opGather
	opAllgather
	opScatter
	opAlltoall
	opAlltoallv
	opScan
)

// nextColTag allocates the internal tag for one collective call. All
// processes execute collectives in the same order, so their counters
// agree; the tag is at most -2, so it can never collide with user tags
// (>= 0) or the AnyTag sentinel (-1), and it is invisible to AnyTag
// receives.
func (c *Comm) nextColTag(op int) int {
	c.mu.Lock()
	seq := c.colSeq
	c.colSeq++
	c.mu.Unlock()
	return -int(seq*16+uint64(op)) - 2
}

// recvCol receives one collective message with an exact (src, tag) match.
func (c *Comm) recvCol(src, tag int) (Data, error) {
	d, _, err := c.RecvTimeout(src, tag, -1)
	return d, err
}

// Barrier blocks until every process has entered it (dissemination
// algorithm, ⌈log2 p⌉ rounds).
func (c *Comm) Barrier() error {
	tag := c.nextColTag(opBarrier)
	p := c.size
	for k := 1; k < p; k <<= 1 {
		to := (c.rank + k) % p
		from := (c.rank - k + p) % p
		if err := c.send(to, tag, Data{}); err != nil {
			return err
		}
		if _, err := c.recvCol(from, tag); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes root's data to every process down a binomial tree
// (⌈log2 p⌉ rounds) and returns the local copy (root returns its input).
func (c *Comm) Bcast(root int, d Data) (Data, error) {
	if root < 0 || root >= c.size {
		return Data{}, ErrInvalidRank
	}
	tag := c.nextColTag(opBcast)
	p := c.size
	rel := (c.rank - root + p) % p
	// Receive from the parent (owner of my lowest set bit).
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (rel - mask + root) % p
			got, err := c.recvCol(src, tag)
			if err != nil {
				return Data{}, err
			}
			d = got
			break
		}
		mask <<= 1
	}
	// Forward to children.
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			dst := (rel + mask + root) % p
			if err := c.send(dst, tag, d); err != nil {
				return Data{}, err
			}
		}
		mask >>= 1
	}
	return d, nil
}

// Reduce combines everyone's data at root up a binomial tree. Non-roots
// return zero Data.
func (c *Comm) Reduce(root int, d Data, combine Combiner) (Data, error) {
	if root < 0 || root >= c.size {
		return Data{}, ErrInvalidRank
	}
	tag := c.nextColTag(opReduce)
	p := c.size
	rel := (c.rank - root + p) % p
	acc := d
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask == 0 {
			partner := rel | mask
			if partner < p {
				src := (partner + root) % p
				got, err := c.recvCol(src, tag)
				if err != nil {
					return Data{}, err
				}
				acc = combine(acc, got)
			}
		} else {
			dst := (rel - mask + root) % p
			if err := c.send(dst, tag, acc); err != nil {
				return Data{}, err
			}
			return Data{}, nil
		}
	}
	return acc, nil
}

// Allreduce combines everyone's data and returns the result everywhere:
// MPICH-style recursive doubling with the standard non-power-of-two
// pre/post phase.
func (c *Comm) Allreduce(d Data, combine Combiner) (Data, error) {
	tag := c.nextColTag(opAllreduce)
	p := c.size
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	acc := d
	newRank := -1

	switch {
	case c.rank < 2*rem && c.rank%2 == 0:
		// Fold into the odd neighbour, then sit out the doubling phase.
		if err := c.send(c.rank+1, tag, acc); err != nil {
			return Data{}, err
		}
	case c.rank < 2*rem:
		got, err := c.recvCol(c.rank-1, tag)
		if err != nil {
			return Data{}, err
		}
		acc = combine(acc, got)
		newRank = c.rank / 2
	default:
		newRank = c.rank - rem
	}

	if newRank >= 0 {
		toReal := func(nr int) int {
			if nr < rem {
				return nr*2 + 1
			}
			return nr + rem
		}
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := toReal(newRank ^ mask)
			if err := c.send(partner, tag, acc); err != nil {
				return Data{}, err
			}
			got, err := c.recvCol(partner, tag)
			if err != nil {
				return Data{}, err
			}
			acc = combine(acc, got)
		}
	}

	// Deliver the result back to the folded-out even ranks.
	if c.rank < 2*rem {
		if c.rank%2 == 0 {
			got, err := c.recvCol(c.rank+1, tag)
			if err != nil {
				return Data{}, err
			}
			acc = got
		} else {
			if err := c.send(c.rank-1, tag, acc); err != nil {
				return Data{}, err
			}
		}
	}
	return acc, nil
}

// Gather collects everyone's data at root, indexed by rank. Non-roots
// return nil.
func (c *Comm) Gather(root int, d Data) ([]Data, error) {
	if root < 0 || root >= c.size {
		return nil, ErrInvalidRank
	}
	tag := c.nextColTag(opGather)
	if c.rank != root {
		return nil, c.send(root, tag, d)
	}
	out := make([]Data, c.size)
	out[root] = d
	for r := 0; r < c.size; r++ {
		if r == root {
			continue
		}
		got, err := c.recvCol(r, tag)
		if err != nil {
			return nil, err
		}
		out[r] = got
	}
	return out, nil
}

// Allgather collects everyone's data at every process in p-1 ring steps.
func (c *Comm) Allgather(d Data) ([]Data, error) {
	tag := c.nextColTag(opAllgather)
	p := c.size
	out := make([]Data, p)
	out[c.rank] = d
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	for step := 0; step < p-1; step++ {
		sendIdx := (c.rank - step + p) % p
		recvIdx := (c.rank - step - 1 + p) % p
		if err := c.send(right, tag, out[sendIdx]); err != nil {
			return nil, err
		}
		got, err := c.recvCol(left, tag)
		if err != nil {
			return nil, err
		}
		out[recvIdx] = got
	}
	return out, nil
}

// Scatter distributes parts[i] from root to rank i and returns the local
// part. Only root's parts argument is consulted.
func (c *Comm) Scatter(root int, parts []Data) (Data, error) {
	if root < 0 || root >= c.size {
		return Data{}, ErrInvalidRank
	}
	tag := c.nextColTag(opScatter)
	if c.rank == root {
		if len(parts) != c.size {
			return Data{}, fmt.Errorf("mpi: scatter needs %d parts, got %d", c.size, len(parts))
		}
		for r := 0; r < c.size; r++ {
			if r == root {
				continue
			}
			if err := c.send(r, tag, parts[r]); err != nil {
				return Data{}, err
			}
		}
		return parts[root], nil
	}
	return c.recvCol(root, tag)
}

// Alltoall sends parts[i] to rank i and returns what each rank sent here.
func (c *Comm) Alltoall(parts []Data) ([]Data, error) {
	if len(parts) != c.size {
		return nil, fmt.Errorf("mpi: alltoall needs %d parts, got %d", c.size, len(parts))
	}
	tag := c.nextColTag(opAlltoall)
	return c.exchange(parts, tag)
}

// Alltoallv is Alltoall with per-destination sizes; in this byte-oriented
// API it is the same exchange, kept separate to mirror the MPI surface
// (NAS IS uses Alltoallv for its key redistribution).
func (c *Comm) Alltoallv(parts []Data) ([]Data, error) {
	if len(parts) != c.size {
		return nil, fmt.Errorf("mpi: alltoallv needs %d parts, got %d", c.size, len(parts))
	}
	tag := c.nextColTag(opAlltoallv)
	return c.exchange(parts, tag)
}

// exchange runs the pairwise all-to-all schedule: p-1 balanced rounds,
// the partner distance rotating by one each round.
func (c *Comm) exchange(parts []Data, tag int) ([]Data, error) {
	p := c.size
	out := make([]Data, p)
	out[c.rank] = parts[c.rank]
	for round := 1; round < p; round++ {
		to := (c.rank + round) % p
		from := (c.rank - round + p) % p
		if err := c.send(to, tag, parts[to]); err != nil {
			return nil, err
		}
		got, err := c.recvCol(from, tag)
		if err != nil {
			return nil, err
		}
		out[from] = got
	}
	return out, nil
}

// Scan computes the inclusive prefix reduction: rank k returns the
// combination of ranks 0..k (linear chain).
func (c *Comm) Scan(d Data, combine Combiner) (Data, error) {
	tag := c.nextColTag(opScan)
	acc := d
	if c.rank > 0 {
		got, err := c.recvCol(c.rank-1, tag)
		if err != nil {
			return Data{}, err
		}
		acc = combine(got, acc)
	}
	if c.rank < c.size-1 {
		if err := c.send(c.rank+1, tag, acc); err != nil {
			return Data{}, err
		}
	}
	return acc, nil
}
