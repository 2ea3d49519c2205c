package nas

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"p2pmpi/internal/mpi"
	"p2pmpi/internal/simnet"
	"p2pmpi/internal/vtime"
)

func TestLCGSkipMatchesSequential(t *testing.T) {
	seq := NewLCG(EPSeed)
	for i := 0; i < 1000; i++ {
		seq.Next()
	}
	jumped := At(EPSeed, 1000)
	if seq.State() != jumped.State() {
		t.Fatalf("skip(1000) state %d != sequential %d", jumped.State(), seq.State())
	}
}

func TestLCGSkipZeroAndOne(t *testing.T) {
	g := At(EPSeed, 0)
	if g.State() != EPSeed {
		t.Fatal("skip 0 moved the stream")
	}
	a := NewLCG(EPSeed)
	a.Next()
	b := At(EPSeed, 1)
	if a.State() != b.State() {
		t.Fatal("skip 1 != one step")
	}
}

func TestLCGValuesInUnitInterval(t *testing.T) {
	g := NewLCG(ISSeed)
	for i := 0; i < 10000; i++ {
		v := g.Next()
		if v <= 0 || v >= 1 {
			t.Fatalf("value %v outside (0,1) at step %d", v, i)
		}
	}
}

func TestLCGUniformity(t *testing.T) {
	g := NewLCG(EPSeed)
	const n = 200000
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		buckets[int(g.Next()*10)]++
	}
	for b, c := range buckets {
		frac := float64(c) / n
		if frac < 0.09 || frac > 0.11 {
			t.Fatalf("bucket %d has fraction %v", b, frac)
		}
	}
}

// TestEPPartitionInvariance is the core distributed-correctness property:
// any process decomposition must reproduce the sequential result exactly.
func TestEPPartitionInvariance(t *testing.T) {
	const m = 16 // 65536 pairs
	whole := EPChunk(0, 1<<m)
	for _, nproc := range []int{2, 3, 7, 16} {
		var sx, sy float64
		var q [10]int64
		for p := 0; p < nproc; p++ {
			lo, hi := epRange(m, p, nproc)
			r := EPChunk(lo, hi)
			sx += r.Sx
			sy += r.Sy
			for i := range q {
				q[i] += r.Q[i]
			}
		}
		if !almostEq(sx, whole.Sx) || !almostEq(sy, whole.Sy) {
			t.Fatalf("nproc=%d: sums diverge: (%v,%v) vs (%v,%v)", nproc, sx, sy, whole.Sx, whole.Sy)
		}
		if q != whole.Q {
			t.Fatalf("nproc=%d: counts diverge: %v vs %v", nproc, q, whole.Q)
		}
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return d/scale < 1e-9
}

func TestEPRangesCoverExactly(t *testing.T) {
	for _, nproc := range []int{1, 3, 5, 32, 61} {
		var total int64
		prevHi := int64(0)
		for p := 0; p < nproc; p++ {
			lo, hi := epRange(20, p, nproc)
			if lo != prevHi {
				t.Fatalf("gap at proc %d: lo=%d prev=%d", p, lo, prevHi)
			}
			total += hi - lo
			prevHi = hi
		}
		if total != 1<<20 {
			t.Fatalf("nproc=%d covers %d pairs", nproc, total)
		}
	}
}

// TestEPClassSReference verifies the official class S sums, proving the
// generator and Gaussian kernel match NPB bit-for-bit behaviour.
func TestEPClassSReference(t *testing.T) {
	if testing.Short() {
		t.Skip("class S takes ~1s of real compute")
	}
	r := EPChunk(0, 1<<EPClassS.M)
	if err := EPVerify(EPClassS, r); err != nil {
		t.Fatal(err)
	}
}

func TestEPVerifyRejectsWrongSums(t *testing.T) {
	r := EPResult{Sx: 1, Sy: 2}
	if err := EPVerify(EPClassS, r); err == nil {
		t.Fatal("bogus sums verified")
	}
	// Unofficial class (no refs) always verifies.
	if err := EPVerify(EPClass{Name: "X", M: 10}, r); err != nil {
		t.Fatal(err)
	}
}

func TestISKeysDeterministicAndBounded(t *testing.T) {
	cls := ISClassT
	a := ISKeys(cls, 0, 256)
	b := ISKeys(cls, 0, 256)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic key sequence")
		}
		if a[i] < 0 || a[i] >= cls.MaxKey() {
			t.Fatalf("key %d out of range", a[i])
		}
	}
	// Block generation equals whole-sequence slices.
	whole := ISKeys(cls, 0, 512)
	tail := ISKeys(cls, 256, 512)
	for i := range tail {
		if tail[i] != whole[256+i] {
			t.Fatalf("block at offset diverges at %d", i)
		}
	}
}

func TestBucketSplitBalances(t *testing.T) {
	totals := make([]int64, 64)
	for i := range totals {
		totals[i] = 100
	}
	split := bucketSplit(totals, 4)
	if split[0] != 0 || split[4] != 64 {
		t.Fatalf("split = %v", split)
	}
	for p := 0; p < 4; p++ {
		n := split[p+1] - split[p]
		if n != 16 {
			t.Fatalf("proc %d owns %d buckets: %v", p, n, split)
		}
	}
}

func TestBucketSplitSkewed(t *testing.T) {
	// All keys in one bucket: one proc owns it; split stays monotone.
	totals := make([]int64, 16)
	totals[3] = 1000
	split := bucketSplit(totals, 4)
	for p := 0; p < 4; p++ {
		if split[p] > split[p+1] {
			t.Fatalf("split not monotone: %v", split)
		}
	}
	if split[4] != 16 {
		t.Fatalf("split = %v", split)
	}
}

func TestCountingSort(t *testing.T) {
	in := []int32{5, 2, 9, 2, 0, 7, 5}
	got := countingSort(in)
	want := append([]int32(nil), in...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted = %v", got)
		}
	}
	if countingSort(nil) != nil {
		t.Fatal("empty sort")
	}
}

// runISWorld executes IS over an in-process virtual world.
func runISWorld(t *testing.T, cls ISClass, n int) []ISResult {
	t.Helper()
	s := vtime.New()
	t.Cleanup(s.Shutdown)
	net := simnet.New(s, &simnet.StaticTopology{
		HostSite: map[string]string{"hub": "local"},
		DefLat:   200 * time.Microsecond,
	}, simnet.Config{Seed: 5, NICBps: 1e9})

	results := make([]ISResult, n)
	s.Go("world", func() {
		errs := mpi.RunLocal(s, net.Node("hub"), "hub", 42000, n, mpi.Algorithms{},
			func(c *mpi.Comm) error {
				r, err := RunIS(cls, c)
				if err == nil {
					results[c.Rank()] = r
				}
				return err
			})
		for rank, err := range errs {
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
		}
	})
	s.Wait()
	return results
}

func TestISFullVerification(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		results := runISWorld(t, ISClassT, n)
		var total int64
		starts := make([]int64, 0, n)
		for _, r := range results {
			total += int64(r.ReceivedKeys)
			starts = append(starts, r.GlobalStart)
		}
		if total != ISClassT.TotalKeys() {
			t.Fatalf("n=%d: %d keys, want %d", n, total, ISClassT.TotalKeys())
		}
		// Global start offsets must tile the key space.
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		if starts[0] != 0 {
			t.Fatalf("n=%d: first offset %d", n, starts[0])
		}
	}
}

func TestISClassSParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("class S IS moves 2.5 MB of keys")
	}
	results := runISWorld(t, ISClassS, 4)
	var total int64
	for _, r := range results {
		total += int64(r.ReceivedKeys)
	}
	if total != ISClassS.TotalKeys() {
		t.Fatalf("class S: %d keys, want %d", total, ISClassS.TotalKeys())
	}
}

func TestEPProgramOverMPI(t *testing.T) {
	// Drive EPProgram's engine (chunk + allreduce combination) through a
	// real in-process world using a tiny custom class.
	s := vtime.New()
	t.Cleanup(s.Shutdown)
	net := simnet.New(s, &simnet.StaticTopology{
		HostSite: map[string]string{"hub": "local"},
		DefLat:   100 * time.Microsecond,
	}, simnet.Config{Seed: 6, NICBps: 1e9})

	const m = 14
	whole := EPChunk(0, 1<<m)
	s.Go("world", func() {
		errs := mpi.RunLocal(s, net.Node("hub"), "hub", 43000, 5, mpi.Algorithms{},
			func(c *mpi.Comm) error {
				lo, hi := epRange(m, c.Rank(), c.Size())
				r := EPChunk(lo, hi)
				sums, err := c.AllreduceF64([]float64{r.Sx, r.Sy}, mpi.OpSum)
				if err != nil {
					return err
				}
				if !almostEq(sums[0], whole.Sx) || !almostEq(sums[1], whole.Sy) {
					return fmt.Errorf("rank %d: global sums (%v,%v) vs (%v,%v)",
						c.Rank(), sums[0], sums[1], whole.Sx, whole.Sy)
				}
				return nil
			})
		for rank, err := range errs {
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
		}
	})
	s.Wait()
}
