// Package faults is the network-nemesis engine: it turns a seed and a
// misbehavior model into a reproducible timeline of network-fault
// transitions and replays it against a virtual-time world. Where the
// churn package models clean crash-stop (a host is up or silently
// gone), this one models the messier failures Grid'5000's operational
// record says dominate real deployments:
//
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
// The engine mirrors churn's two-file shape so replay is trivially
// byte-identical:
//
//   - Trace expands (sites, hosts, Config) into a sorted []Event.
//     Partition episodes draw from one RNG seeded off the sorted site
//     list; every gray candidate owns an RNG seeded from
//     hash(Config.Seed, hostID). The trace is a pure function of its
//     inputs as sets — permuting the input slices yields an identical
//     timeline (the property the determinism tests pin).
//   - Driver replays a trace on the barriers of a vtime.Domain — each
//     transition a global event, fired with every shard parked on its
//     exact virtual time — invoking Partition and Gray hooks.
//     Overlapping episodes that cut the same site pair are
//     reference-counted so hooks see each link transition exactly once,
//     and the Healed hook fires when the last active cut lifts.
//
// The constant knobs (link loss/latency multiplier, duplication) need
// no timeline; exp.World.StartFaults applies them to simnet once at
// start and wires the hooks into simnet's barrier-fenced fault state
// (SetCut, SetGray). Config round-trips through the -faults
// command-line syntax via ParseFaultSpec and String.
package faults
