// Package p2pmpi is a Go reproduction of P2P-MPI's co-allocation system
// as published in "Large-Scale Experiment of Co-allocation Strategies
// for Peer-to-Peer SuperComputing in P2P-MPI" (Genaud & Rattanapoka,
// HPGC/IPDPS 2008).
//
// The package is a thin facade over the internal subsystems, and it
// keeps only what the examples, the README walkthrough and the root
// tests use:
//
//   - the names of the placement strategies a job may ask for — the
//     paper's co-allocation strategies (spread, concentrate), the mixed
//     extension and the minsites/comm-aware policies (internal/core);
//   - the P2P middleware: supernode and MPD daemons, which run the
//     full 8-step submission protocol (internal/overlay, internal/mpd);
//   - an MPJ-like MPI library with one fixed schedule per collective and
//     transparent process replication (internal/mpi), run in-process
//     by RunLocal;
//   - the simulated deployment the experiment harness boots, on the
//     modelled Grid'5000 testbed or a synthetic grid topology that
//     scales worlds to thousands of hosts (internal/exp, internal/grid).
//
// Everything runs in two worlds from the same code: real TCP sockets on
// a wall clock (vtime.Real + transport.TCP), or the deterministic
// virtual-time Grid'5000 simulation used by the evaluation.
package p2pmpi

import (
	"p2pmpi/internal/core"
	"p2pmpi/internal/exp"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/mpi"
	"p2pmpi/internal/overlay"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// Strategy names an allocation policy (§4.3 of the paper plus the
// extensions); it is the lookup key of the placement set.
type Strategy = core.Strategy

// The built-in strategies the examples and tests name.
const (
	Spread      = core.Spread
	Concentrate = core.Concentrate
	Mixed       = core.Mixed
	MinSites    = core.MinSites
	CommAware   = core.CommAware
)

// PlacementNames lists every strategy name in sorted order.
func PlacementNames() []string { return core.Names() }

// Middleware types.
type (
	// JobSpec mirrors `p2pmpirun -n N -r R -a strategy prog args...`.
	JobSpec = mpd.JobSpec
	// JobResult is the submitter's view of a finished job.
	JobResult = mpd.JobResult
	// Program is an MPI application body run once per process.
	Program = mpd.Program
	// Env is the per-process execution environment.
	Env = mpd.Env
	// MPD is the per-host daemon.
	MPD = mpd.MPD
	// MPDConfig configures a daemon.
	MPDConfig = mpd.Config
	// MPDShared is the deployment-invariant half of MPDConfig; one
	// block may back every daemon of a deployment.
	MPDShared = mpd.Shared
	// PeerInfo identifies a peer and its service addresses.
	PeerInfo = proto.PeerInfo
	// Supernode is the bootstrap/membership daemon — standalone, or one
	// member of a federated K-shard tier (SupernodeConfig.Federation).
	Supernode = overlay.Supernode
	// SupernodeConfig configures a supernode.
	SupernodeConfig = overlay.SupernodeConfig
)

// NewMPD creates an MPD daemon over the given runtime and network.
func NewMPD(rt vtime.Runtime, net transport.Network, cfg MPDConfig) *MPD {
	return mpd.New(rt, net, cfg)
}

// NewSupernode creates a supernode daemon.
func NewSupernode(rt vtime.Runtime, net transport.Network, cfg SupernodeConfig) *Supernode {
	return overlay.NewSupernode(rt, net, cfg)
}

// MPI library surface.
type (
	// Comm is a per-process communicator.
	Comm = mpi.Comm
	// Data is a message body (bytes and/or modelled size).
	Data = mpi.Data
)

// OpSum is the summing reduction operator.
const OpSum = mpi.OpSum

// RunLocal executes fn as n in-process MPI ranks — the quickest way to
// use the MPI library without the middleware. Each collective runs one
// fixed schedule: binomial-tree Bcast and Reduce, recursive-doubling
// Allreduce, ring Allgather and pairwise Alltoall(v).
func RunLocal(rt vtime.Runtime, net transport.Network, host string, basePort, n int,
	fn func(c *Comm) error) []error {
	return mpi.RunLocal(rt, net, host, basePort, n, fn)
}

// Runtimes and transports.
type (
	// Runtime abstracts the clock and goroutine spawning.
	Runtime = vtime.Runtime
	// Scheduler is the deterministic virtual-time runtime.
	Scheduler = vtime.Scheduler
	// Network abstracts listeners and dialing.
	Network = transport.Network
)

// RealRuntime returns the wall-clock runtime.
func RealRuntime() Runtime { return vtime.Real{} }

// NewScheduler returns a fresh virtual-time scheduler.
func NewScheduler() *Scheduler { return vtime.New() }

// TCPNetwork returns the real TCP transport.
func TCPNetwork() Network { return transport.TCP{} }

// Grid'5000 model, synthetic topologies and the simulated deployment.
type (
	// TopologySpec describes a testbed to build; the zero value is the
	// paper's Grid'5000, synthetic specs scale to thousands of hosts.
	TopologySpec = grid.TopologySpec
	// World is a fully deployed simulated testbed.
	World = exp.World
	// WorldOptions tunes a simulated world (WorldOptions.Topology
	// selects the testbed).
	WorldOptions = exp.Options
)

// ParseTopologySpec parses a -grid style topology string ("grid5000" or
// "synth:S=12,H=400,C=2,seed=7").
func ParseTopologySpec(s string) (TopologySpec, error) { return grid.ParseTopologySpec(s) }

// NewSimulatedGrid builds (without booting) the complete simulated
// deployment described by opts.Topology — one compute peer per grid
// host (350 for the default Grid'5000), a supernode and a submitter
// frontend.
func NewSimulatedGrid(opts WorldOptions) *World { return exp.NewWorld(opts) }

// DefaultWorldOptions returns the harness defaults for a seed.
func DefaultWorldOptions(seed int64) WorldOptions { return exp.DefaultOptions(seed) }
