// Package faults is the deterministic fault-injection engine: it turns
// a seed and a failure model into a reproducible timeline of fault
// transitions and replays it against a virtual-time world.
//
// The paper ran its co-allocation experiments on a cooperative,
// failure-free Grid'5000 snapshot, but P2P-MPI's premise is
// replication-based fault tolerance on unreliable peers. The model
// covers both the clean crash-stop failures and the messier network
// failures Grid'5000's operational record reports:
//
//   - host crashes — per-host renewal processes with exponential or
//     Weibull lifetimes (MTBF for uptime, MTTR for repair), plus
//     optional correlated whole-site outages modelling switch and
//     power-domain failures;
//   - site↔site partitions — renewal episodes that cut either one
//     random site pair or (Split) a full bisection of the platform,
//     the cut that splits a supernode federation into islands;
//   - per-link degradation — a constant drop probability and latency
//     multiplier on every cross-site link;
//   - gray-failure hosts — a seeded fraction of hosts that stay alive
//     (they answer what gets through) but intermittently drop or slow
//     all their traffic;
//   - bounded message duplication — data frames are occasionally
//     delivered twice, the second copy delayed past later traffic, so
//     receivers see duplicated and reordered frames.
//
// The engine is split so replay is trivially byte-identical:
//
//   - Trace expands (sites, hosts, Config) into a sorted []Event. The
//     partition process, every gray candidate, every host and every
//     site draw from an RNG seeded from hash(Config.Seed, entity), so
//     the trace is a pure function of its inputs as sets — permuting
//     the input slices yields an identical timeline (the property the
//     determinism tests pin).
//   - Driver replays a trace on the barriers of a vtime.Domain — each
//     transition a global event, fired with every shard parked on its
//     exact virtual time — invoking the Partition, Gray, Down and Up
//     hooks. Overlapping causes (two episodes cutting one site pair, a
//     host failure inside a site outage) are reference-counted, so
//     hooks see each transition exactly once; Healed fires when the
//     last active cut lifts.
//
// The constant knobs (link loss/latency multiplier, duplication) need
// no timeline. exp.World.StartFaults applies them to simnet once at
// start and wires the hooks into the world: simnet's barrier-fenced
// fault state (SetCut, SetGray, FailHost) and the host's MPD, which
// crashes (local jobs die unreported, reservations are released as
// failures — not conflicts) and re-registers when it revives.
// exp.World.StartChurn replays the crash part of a Config alone. The
// network part round-trips through the -faults command-line syntax via
// ParseFaultSpec and String.
package faults
