// Nasgrid: run the real NAS kernels (not the virtual-time models) over
// the MPI library — EP class W verified against the official NPB
// reference sums, and IS class S with full sortedness verification,
// each on 8 in-process ranks.
//
//	go run ./examples/nasgrid
package main

import (
	"fmt"
	"log"
	"time"

	"p2pmpi"
	"p2pmpi/internal/mpi"
	"p2pmpi/internal/nas"
)

func main() {
	const n = 8

	fmt.Printf("NAS EP class %s on %d ranks (2^%d Gaussian pairs)\n",
		nas.EPClassW.Name, n, nas.EPClassW.M)
	start := time.Now()
	// Ranks listen on 31200+rank (EP) and 31300+rank (IS): below Linux's
	// ephemeral range (32768–60999), where an outbound connection's
	// source port can take a port between the pick and the Listen, and
	// clear of the ports the root package's TCP tests bind (20000–29xxx).
	errs := p2pmpi.RunLocal(p2pmpi.RealRuntime(), p2pmpi.TCPNetwork(),
		"127.0.0.1", 31200, n,
		func(c *mpi.Comm) error {
			lo := int64(c.Rank()) * (1 << nas.EPClassW.M) / int64(c.Size())
			hi := int64(c.Rank()+1) * (1 << nas.EPClassW.M) / int64(c.Size())
			r := nas.EPChunk(lo, hi)
			sums, err := c.AllreduceF64([]float64{r.Sx, r.Sy}, mpi.OpSum)
			if err != nil {
				return err
			}
			global := nas.EPResult{Sx: sums[0], Sy: sums[1]}
			if err := nas.EPVerify(nas.EPClassW, global); err != nil {
				return err
			}
			if c.Rank() == 0 {
				fmt.Printf("  sx=%.10e sy=%.10e — matches the NPB reference\n", sums[0], sums[1])
			}
			return nil
		})
	check(errs)
	fmt.Printf("  EP done in %.2fs\n\n", time.Since(start).Seconds())

	fmt.Printf("NAS IS class %s on %d ranks (2^%d keys, %d iterations)\n",
		nas.ISClassS.Name, n, nas.ISClassS.TotalKeysLog2, nas.ISClassS.Iterations)
	start = time.Now()
	errs = p2pmpi.RunLocal(p2pmpi.RealRuntime(), p2pmpi.TCPNetwork(),
		"127.0.0.1", 31300, n,
		func(c *mpi.Comm) error {
			res, err := nas.RunIS(nas.ISClassS, c)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				fmt.Printf("  rank 0: %d of %d keys landed here, global offset %d — fully verified\n",
					res.ReceivedKeys, res.TotalKeys, res.GlobalStart)
			}
			return nil
		})
	check(errs)
	fmt.Printf("  IS done in %.2fs\n", time.Since(start).Seconds())
}

func check(errs []error) {
	for rank, err := range errs {
		if err != nil {
			log.Fatalf("rank %d: %v", rank, err)
		}
	}
}
