// Package churn is the deterministic fault-injection engine: it turns a
// seed and a failure model into a reproducible timeline of host up/down
// transitions and replays that timeline against a virtual-time world.
//
// The paper ran its co-allocation experiments on a cooperative,
// failure-free Grid'5000 snapshot, but P2P-MPI's premise is
// replication-based fault tolerance on unreliable peers. This package
// supplies the missing experiment axis: per-host renewal processes with
// exponential or Weibull lifetime distributions (MTBF for uptime, MTTR
// for repair), plus optional correlated whole-site outages modelling
// switch and power-domain failures — the dominant real-grid failure mode
// reported in Grid'5000's own operational record.
//
// The engine is split so replay is trivially byte-identical:
//
//   - Trace expands (hosts, Config) into a sorted []Event. Every host
//     owns an RNG seeded from hash(Config.Seed, hostID), so the trace is
//     a pure function of its inputs and independent of the order the
//     host slice is supplied in — the property the determinism tests
//     pin.
//   - Driver replays a trace on the barriers of a vtime.Domain — each
//     transition a global event, fired with every shard parked on its
//     exact virtual time — invoking the caller's Down/Up hooks.
//     Overlapping causes (a host-level failure inside a site-wide
//     outage) are reference-counted: Down fires on the first cause, Up
//     only once every cause has cleared.
//
// exp.World.StartChurn wires the hooks into a simulated deployment:
// simnet drops the host's links, the host MPD crashes (local jobs die
// unreported, reservations are released as failures — not conflicts),
// and a reviving host re-registers with the supernode.
package churn
