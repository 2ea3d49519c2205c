// Command mpiboot starts one P2P-MPI peer on real TCP: the MPD daemon
// plus its Reservation Service, registered at a supernode — the paper's
// `mpiboot` (§3.2). The peer then answers latency pings, accepts
// reservations under its owner preferences (-p, -j, -deny) and hosts MPI
// processes for submitted jobs.
//
//	mpiboot -id node1 -mpd 127.0.0.1:9100 -rs 127.0.0.1:9101 \
//	        -supernode 127.0.0.1:8800 -p 2 -j 1
//
// The peer runs nas.RealPrograms: hostname, spin, the NAS EP kernel
// (classes S/W/A/B) and the NAS IS kernel (classes S/W/A/B).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"p2pmpi/internal/mpd"
	"p2pmpi/internal/nas"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

func main() {
	id := flag.String("id", "", "peer identity (default: hostname)")
	site := flag.String("site", "local", "site label")
	mpdAddr := flag.String("mpd", "127.0.0.1:9100", "MPD listen address")
	rsAddr := flag.String("rs", "127.0.0.1:9101", "Reservation Service listen address")
	snAddr := flag.String("supernode", "127.0.0.1:8800", "supernode address")
	p := flag.Int("p", 1, "owner preference P: processes per application")
	j := flag.Int("j", 1, "owner preference J: simultaneous applications")
	deny := flag.String("deny", "", "comma-separated denied submitter IDs")
	procBase := flag.Int("procbase", 41000, "first port for launched processes")
	flag.Parse()

	if *id == "" {
		h, err := os.Hostname()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpiboot: cannot determine hostname; pass -id")
			os.Exit(1)
		}
		*id = h
	}
	var denyList []string
	if *deny != "" {
		denyList = strings.Split(*deny, ",")
	}

	daemon := mpd.New(vtime.Real{}, transport.TCP{}, mpd.Config{
		Self: proto.PeerInfo{
			ID: *id, Site: *site, MPDAddr: *mpdAddr, RSAddr: *rsAddr,
		},
		P:    *p,
		J:    *j,
		Deny: denyList,
		Seed: int64(os.Getpid()),
		Shared: &mpd.Shared{
			SupernodeAddr: *snAddr,
			Programs:      nas.RealPrograms(),
			ProcBasePort:  *procBase,
		},
	})
	if err := daemon.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "mpiboot: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("mpiboot: peer %s up (MPD %s, RS %s, P=%d, J=%d) -> supernode %s\n",
		*id, *mpdAddr, *rsAddr, *p, *j, *snAddr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("mpiboot: shutting down")
	daemon.Close()
}
