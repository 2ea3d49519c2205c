// Quickstart: run an MPI program with the p2pmpi library — no daemons,
// no simulation, just four in-process ranks talking over real TCP on
// localhost.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"p2pmpi"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const n = 4
	fmt.Fprintf(w, "quickstart: %d ranks over local TCP\n", n)

	// Ranks listen on 31100+rank: below Linux's ephemeral range
	// (32768–60999), where an outbound connection's source port can
	// take a port between the pick and the Listen, and clear of the
	// ports the root package's TCP tests bind (20000–29xxx).
	errs := p2pmpi.RunLocal(p2pmpi.RealRuntime(), p2pmpi.TCPNetwork(),
		"127.0.0.1", 31100, n,
		func(c *p2pmpi.Comm) error {
			// Each rank contributes rank+1; everyone learns the total.
			sum, err := c.AllreduceF64([]float64{float64(c.Rank() + 1)}, p2pmpi.OpSum)
			if err != nil {
				return err
			}
			// Rank 0 gathers a short greeting from every rank.
			msg := p2pmpi.Data{Bytes: []byte(fmt.Sprintf("hello from rank %d", c.Rank()))}
			all, err := c.Gather(0, msg)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				fmt.Fprintf(w, "allreduce(1..%d) = %v\n", n, sum[0])
				for rank, d := range all {
					fmt.Fprintf(w, "  gathered[%d] = %s\n", rank, d.Bytes)
				}
			}
			return nil
		})

	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d failed: %w", rank, err)
		}
	}
	fmt.Fprintln(w, "quickstart: all ranks finished")
	return nil
}
