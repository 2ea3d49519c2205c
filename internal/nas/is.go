package nas

import (
	"fmt"

	"p2pmpi/internal/mpd"
	"p2pmpi/internal/mpi"
)

// ISClass parameterizes the IS kernel: 2^TotalKeysLog2 keys in
// [0, 2^MaxKeyLog2), bucketed into 2^BucketsLog2 buckets, ranked over
// Iterations rounds.
type ISClass struct {
	Name          string
	TotalKeysLog2 uint
	MaxKeyLog2    uint
	BucketsLog2   uint
	Iterations    int
}

// The official IS classes (NPB is.c) plus a tiny class T for tests.
var (
	ISClassS = ISClass{Name: "S", TotalKeysLog2: 16, MaxKeyLog2: 11, BucketsLog2: 10, Iterations: 10}
	ISClassW = ISClass{Name: "W", TotalKeysLog2: 20, MaxKeyLog2: 16, BucketsLog2: 10, Iterations: 10}
	ISClassA = ISClass{Name: "A", TotalKeysLog2: 23, MaxKeyLog2: 19, BucketsLog2: 10, Iterations: 10}
	ISClassB = ISClass{Name: "B", TotalKeysLog2: 25, MaxKeyLog2: 21, BucketsLog2: 10, Iterations: 10}
	ISClassT = ISClass{Name: "T", TotalKeysLog2: 12, MaxKeyLog2: 9, BucketsLog2: 6, Iterations: 3}
)

// TotalKeys returns 2^TotalKeysLog2.
func (c ISClass) TotalKeys() int64 { return 1 << c.TotalKeysLog2 }

// MaxKey returns 2^MaxKeyLog2.
func (c ISClass) MaxKey() int32 { return 1 << c.MaxKeyLog2 }

// Buckets returns 2^BucketsLog2.
func (c ISClass) Buckets() int { return 1 << c.BucketsLog2 }

// ISKeys generates the key block [lo, hi) of the IS sequence: key i
// consumes stream values 4i+1..4i+4 and equals
// floor(MaxKey/4 · (r1+r2+r3+r4)), NPB's create_seq.
func ISKeys(cls ISClass, lo, hi int64) []int32 {
	g := At(ISSeed, uint64(4*lo))
	k := float64(cls.MaxKey()) / 4
	out := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		x := g.Next() + g.Next() + g.Next() + g.Next()
		out = append(out, int32(k*x))
	}
	return out
}

// isRange splits the key sequence evenly over size processes.
func isRange(cls ISClass, rank, size int) (lo, hi int64) {
	total := cls.TotalKeys()
	per := total / int64(size)
	rem := total % int64(size)
	lo = int64(rank)*per + min64(int64(rank), rem)
	hi = lo + per
	if int64(rank) < rem {
		hi++
	}
	return lo, hi
}

// bucketSplit assigns bucket ownership to processes so that cumulative
// key counts balance (NPB's bucket distribution): it returns, for each
// process, the first bucket it owns; process j owns buckets
// [split[j], split[j+1]).
func bucketSplit(totals []int64, nprocs int) []int {
	var totalKeys int64
	for _, t := range totals {
		totalKeys += t
	}
	split := make([]int, nprocs+1)
	split[nprocs] = len(totals)
	var cum int64
	proc := 1
	for b := 0; b < len(totals) && proc < nprocs; b++ {
		cum += totals[b]
		for proc < nprocs && cum >= int64(proc)*totalKeys/int64(nprocs) {
			split[proc] = b + 1
			proc++
		}
	}
	for ; proc < nprocs; proc++ {
		split[proc] = len(totals)
	}
	return split
}

// ISResult summarizes one process's verified outcome.
type ISResult struct {
	ReceivedKeys int
	GlobalStart  int64
	TotalKeys    int64
}

// ISProgram returns the real IS benchmark as an MPD program. Each
// iteration performs NPB IS's exact communication schedule — Allreduce
// of the bucket histogram, Alltoall of the send counts, Alltoallv of the
// keys — followed by the local counting rank. After the last iteration a
// full verification checks global sortedness and key conservation.
func ISProgram(cls ISClass) mpd.Program {
	return func(env *mpd.Env) error {
		c, err := env.Comm()
		if err != nil {
			return err
		}
		res, err := RunIS(cls, c)
		if err != nil {
			return err
		}
		fmt.Fprintf(&env.Out, "IS class %s: keys=%d received=%d start=%d verified",
			cls.Name, res.TotalKeys, res.ReceivedKeys, res.GlobalStart)
		return nil
	}
}

// RunIS executes the IS kernel on an existing communicator and fully
// verifies the result. It is the engine behind ISProgram and is exported
// for direct use in tests and examples.
func RunIS(cls ISClass, c *mpi.Comm) (ISResult, error) {
	rank, size := c.Rank(), c.Size()
	lo, hi := isRange(cls, rank, size)
	keys := ISKeys(cls, lo, hi)
	nBuckets := cls.Buckets()
	shift := cls.MaxKeyLog2 - cls.BucketsLog2

	var received []int32
	for iter := 1; iter <= cls.Iterations; iter++ {
		// NPB's per-iteration key modification (each process mutates its
		// local array positions iter and iter+Iterations).
		if len(keys) > iter {
			keys[iter] = int32(iter)
		}
		if len(keys) > iter+cls.Iterations {
			keys[iter+cls.Iterations] = cls.MaxKey() - int32(iter)
		}

		// Local histogram.
		counts := make([]int64, nBuckets)
		for _, k := range keys {
			counts[int(uint32(k)>>shift)]++
		}
		totals, err := c.AllreduceI64(counts, mpi.OpSum)
		if err != nil {
			return ISResult{}, fmt.Errorf("is allreduce: %w", err)
		}
		split := bucketSplit(totals, size)

		// Partition local keys by destination process.
		bucketOwner := make([]int, nBuckets)
		for p := 0; p < size; p++ {
			for b := split[p]; b < split[p+1]; b++ {
				bucketOwner[b] = p
			}
		}
		outKeys := make([][]int32, size)
		for _, k := range keys {
			p := bucketOwner[int(uint32(k)>>shift)]
			outKeys[p] = append(outKeys[p], k)
		}

		// Alltoall of the counts (NPB sends send_count first)...
		countParts := make([]mpi.Data, size)
		for p := 0; p < size; p++ {
			countParts[p] = mpi.Data{Bytes: mpi.EncodeI64s([]int64{int64(len(outKeys[p]))})}
		}
		if _, err := c.Alltoall(countParts); err != nil {
			return ISResult{}, fmt.Errorf("is alltoall: %w", err)
		}
		// ...then Alltoallv of the key payloads.
		keyParts := make([]mpi.Data, size)
		for p := 0; p < size; p++ {
			keyParts[p] = mpi.Data{Bytes: mpi.EncodeI32s(outKeys[p])}
		}
		gotParts, err := c.Alltoallv(keyParts)
		if err != nil {
			return ISResult{}, fmt.Errorf("is alltoallv: %w", err)
		}
		received = received[:0]
		for _, part := range gotParts {
			ks, err := mpi.DecodeI32s(part.Bytes)
			if err != nil {
				return ISResult{}, err
			}
			received = append(received, ks...)
		}

		// Local counting rank over my bucket range (the per-iteration
		// "rank" computation of NPB IS).
		loKey := int32(split[rank]) << shift
		hiKey := int32(split[rank+1]) << shift
		if split[rank+1] == nBuckets {
			hiKey = cls.MaxKey()
		}
		width := int(hiKey - loKey)
		if width < 0 {
			return ISResult{}, fmt.Errorf("is: negative key range [%d,%d)", loKey, hiKey)
		}
		keyCounts := make([]int32, width+1)
		for _, k := range received {
			if k < loKey || k >= hiKey {
				return ISResult{}, fmt.Errorf("is: key %d outside my range [%d,%d)", k, loKey, hiKey)
			}
			keyCounts[k-loKey]++
		}
		// Prefix-sum the counts into ranks (kept local, as NPB does).
		var acc int32
		for i := range keyCounts {
			acc += keyCounts[i]
			keyCounts[i] = acc
		}
	}

	// Full verification: global sortedness and key conservation.
	sorted := countingSort(received)
	myCount := int64(len(sorted))
	totalArr, err := c.AllreduceI64([]int64{myCount}, mpi.OpSum)
	if err != nil {
		return ISResult{}, err
	}
	if totalArr[0] != cls.TotalKeys() {
		return ISResult{}, fmt.Errorf("is: %d keys survived, want %d", totalArr[0], cls.TotalKeys())
	}
	scan, err := c.Scan(mpi.Data{Bytes: mpi.EncodeI64s([]int64{myCount})}, mpi.I64Combiner(mpi.OpSum))
	if err != nil {
		return ISResult{}, err
	}
	scanVals, err := mpi.DecodeI64s(scan.Bytes)
	if err != nil {
		return ISResult{}, err
	}
	globalStart := scanVals[0] - myCount

	// Boundary exchange: my maximum must not exceed my right
	// neighbour's minimum (empty partitions forward their left bound).
	const boundaryTag = 77
	myMax := int32(-1)
	if len(sorted) > 0 {
		myMax = sorted[len(sorted)-1]
	}
	if rank < size-1 {
		if err := c.Send(rank+1, boundaryTag, mpi.Data{Bytes: mpi.EncodeI32s([]int32{myMax})}); err != nil {
			return ISResult{}, err
		}
	}
	if rank > 0 {
		d, _, err := c.Recv(rank-1, boundaryTag)
		if err != nil {
			return ISResult{}, err
		}
		leftMax, err := mpi.DecodeI32s(d.Bytes)
		if err != nil {
			return ISResult{}, err
		}
		if len(sorted) > 0 && leftMax[0] > sorted[0] {
			return ISResult{}, fmt.Errorf("is: boundary violation: left max %d > my min %d", leftMax[0], sorted[0])
		}
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			return ISResult{}, fmt.Errorf("is: local order violated at %d", i)
		}
	}
	return ISResult{
		ReceivedKeys: len(received),
		GlobalStart:  globalStart,
		TotalKeys:    totalArr[0],
	}, nil
}

// countingSort sorts int32 keys (non-negative, bounded) ascending.
func countingSort(keys []int32) []int32 {
	if len(keys) == 0 {
		return nil
	}
	minK, maxK := keys[0], keys[0]
	for _, k := range keys {
		if k < minK {
			minK = k
		}
		if k > maxK {
			maxK = k
		}
	}
	counts := make([]int32, int(maxK-minK)+1)
	for _, k := range keys {
		counts[k-minK]++
	}
	out := make([]int32, 0, len(keys))
	for v, n := range counts {
		for ; n > 0; n-- {
			out = append(out, minK+int32(v))
		}
	}
	return out
}
