// Package p2pmpi is a Go reproduction of P2P-MPI's co-allocation system
// as published in "Large-Scale Experiment of Co-allocation Strategies
// for Peer-to-Peer SuperComputing in P2P-MPI" (Genaud & Rattanapoka,
// HPGC/IPDPS 2008).
//
// The package is a facade over the internal subsystems:
//
//   - the placement strategies — the paper's co-allocation
//     strategies (spread, concentrate), the mixed extension and the
//     random/minsites/comm-aware policies — plus the replica-safe rank
//     assignment (internal/core);
//   - the P2P middleware: supernode, MPD daemons, reservation services
//     and the full 8-step submission protocol (internal/overlay,
//     internal/mpd, internal/reservation);
//   - an MPJ-like MPI library with one fixed schedule per collective and
//     transparent process replication (internal/mpi);
//   - the NAS EP and IS kernels, both real and as calibrated
//     virtual-time models (internal/nas);
//   - the modelled Grid'5000 testbed, synthetic grid topologies that
//     scale worlds to thousands of hosts, and the experiment harness
//     that regenerates every table and figure of the paper plus the
//     beyond-the-paper concurrency and scale sweeps (internal/grid,
//     internal/simnet, internal/exp).
//
// Everything runs in two worlds from the same code: real TCP sockets on
// a wall clock (vtime.Real + transport.TCP), or the deterministic
// virtual-time Grid'5000 simulation used by the evaluation.
package p2pmpi

import (
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/exp"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/latency"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/mpi"
	"p2pmpi/internal/nas"
	"p2pmpi/internal/overlay"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// Strategy names an allocation policy (§4.3 of the paper plus the
// extensions); it is the lookup key of the placement set.
type Strategy = core.Strategy

// The built-in strategies.
const (
	Spread      = core.Spread
	Concentrate = core.Concentrate
	Mixed       = core.Mixed
	Random      = core.Random
	MinSites    = core.MinSites
	CommAware   = core.CommAware
)

// ParseStrategy converts a command-line name into a Strategy; it accepts
// exactly the placement names (see PlacementNames).
func ParseStrategy(name string) (Strategy, error) { return core.ParseStrategy(name) }

// Placement is the placement-policy interface every strategy
// implements (Name and Allocate).
type Placement = core.Placement

// LookupPlacement resolves a strategy name to its policy.
func LookupPlacement(name string) (Placement, error) { return core.Lookup(name) }

// PlacementNames lists every strategy name in sorted order.
func PlacementNames() []string { return core.Names() }

// Strategies returns every strategy, for ranging in
// experiments and tools.
func Strategies() []Strategy { return core.Strategies() }

// Allocation core: exported for direct use of the paper's algorithms.
type (
	// HostSlot is one reserved host in ascending-latency order.
	HostSlot = core.HostSlot
	// Assignment is a computed process placement.
	Assignment = core.Assignment
	// Proc is one (rank, replica) pair on a host.
	Proc = core.Proc
)

// Allocate distributes n×r processes over the selected hosts with the
// given strategy and assigns MPI ranks such that no two replicas of a
// rank share a host.
func Allocate(slist []HostSlot, n, r int, s Strategy) (*Assignment, error) {
	return core.Allocate(slist, n, r, s)
}

// Feasible checks the paper's feasibility conditions (§4.2 step 6).
func Feasible(slist []HostSlot, n, r int) error { return core.Feasible(slist, n, r) }

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
	// HostProfile models host hardware for virtual-time runs.
	HostProfile = mpd.HostProfile
	// PeerInfo identifies a peer and its service addresses.
	PeerInfo = proto.PeerInfo
	// Supernode is the bootstrap/membership daemon — standalone, or one
	// member of a federated K-shard tier (SupernodeConfig.Federation).
	Supernode = overlay.Supernode
	// SupernodeConfig configures a supernode.
	SupernodeConfig = overlay.SupernodeConfig
	// SupernodeStats counts a supernode's membership-plane work
	// (gossip exchanges, fostered/redirected registrations, staleness).
	SupernodeStats = overlay.SupernodeStats
)

// ShardAssign returns a host's home shard in a K-shard supernode
// federation: rendezvous hashing, the same function daemons and
// supernodes compute independently.
func ShardAssign(hostID string, k int) int { return overlay.ShardAssign(hostID, k) }

// NewMPD creates an MPD daemon over the given runtime and network.
func NewMPD(rt vtime.Runtime, net transport.Network, cfg MPDConfig) *MPD {
	return mpd.New(rt, net, cfg)
}

// NewSupernode creates a supernode daemon.
func NewSupernode(rt vtime.Runtime, net transport.Network, cfg SupernodeConfig) *Supernode {
	return overlay.NewSupernode(rt, net, cfg)
}

// Hostname is the paper's experiment program: each process echoes the
// name of the host it runs on.
func Hostname(env *Env) error { return mpd.Hostname(env) }

// MPI library surface.
type (
	// Comm is a per-process communicator.
	Comm = mpi.Comm
	// CommConfig configures a process's communicator.
	CommConfig = mpi.Config
	// Data is a message body (bytes and/or modelled size).
	Data = mpi.Data
	// Slot locates one process in the application.
	Slot = mpi.Slot
)

// MPI wildcards and operators.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
	OpSum     = mpi.OpSum
	OpMax     = mpi.OpMax
	OpMin     = mpi.OpMin
	OpProd    = mpi.OpProd
)

// Join brings a process into an application world.
func Join(cfg CommConfig) (*Comm, error) { return mpi.Join(cfg) }

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

// Grid'5000 model, synthetic topologies and the experiment harness.
type (
	// Grid is a testbed model: Table 1 or a generated topology.
	Grid = grid.Grid
	// TopologySpec describes a testbed to build; the zero value is the
	// paper's Grid'5000, synthetic specs scale to thousands of hosts.
	TopologySpec = grid.TopologySpec
	// World is a fully deployed simulated testbed.
	World = exp.World
	// WorldOptions tunes a simulated world (WorldOptions.Topology
	// selects the testbed).
	WorldOptions = exp.Options
)

// Grid5000 builds the paper's Table 1 testbed model.
func Grid5000() *Grid { return grid.Grid5000() }

// SyntheticGrid generates a testbed from a synthetic topology spec.
func SyntheticGrid(spec TopologySpec) *Grid { return grid.Synthetic(spec) }

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

// Spin is the built-in fixed-duration program ("spin 90" runs each
// process for 90 virtual seconds) used by the churn experiments.
func Spin(env *Env) error { return mpd.Spin(env) }

// NAS benchmark surface.
type (
	// EPClass and ISClass parameterize the kernels.
	EPClass = nas.EPClass
	ISClass = nas.ISClass
)

// NAS program constructors (real kernels, verified against NPB).
func EPProgram(cls EPClass) Program { return nas.EPProgram(cls) }

// ISProgram returns the real IS benchmark program.
func ISProgram(cls ISClass) Program { return nas.ISProgram(cls) }

// NAS classes evaluated by the paper.
var (
	EPClassS = nas.EPClassS
	EPClassW = nas.EPClassW
	EPClassA = nas.EPClassA
	EPClassB = nas.EPClassB
	ISClassS = nas.ISClassS
	ISClassW = nas.ISClassW
	ISClassA = nas.ISClassA
	ISClassB = nas.ISClassB
)

// Latency estimators (the paper's future-work study).
type LatencyEstimator = latency.Estimator

// Estimator kinds.
const (
	EstimatorLast   = latency.KindLast
	EstimatorMean   = latency.KindMean
	EstimatorEWMA   = latency.KindEWMA
	EstimatorMedian = latency.KindMedian
	EstimatorMin    = latency.KindMin
)

// NewLatencyEstimator constructs an estimator of the given kind.
func NewLatencyEstimator(kind latency.Kind, window int) (LatencyEstimator, error) {
	return latency.New(kind, window)
}

// Version is the release tag of this reproduction.
const Version = "1.0.0"

// DefaultJobTimeout bounds a submission when JobSpec.Timeout is zero.
const DefaultJobTimeout = 5 * time.Minute
