// Package workload generates open-system submission timelines: seeded
// arrival processes (homogeneous Poisson, piecewise diurnal and weekly
// rate curves with maintenance-window blackouts) over multi-tenant user
// populations with Zipf rate shares and stratified priorities, with
// bounded-Pareto job widths and service durations — the empirical
// shapes of the Grid'5000 "year in the life" platform report, replayed
// against the co-allocation middleware instead of the paper's closed
// K-job batches.
//
// Stream is the only generator: it pulls each tenant's seeded stream
// lazily and merges them on a total key, so the timeline is a pure
// function of the Config (each tenant's stream depends on (Seed, tenant
// index) alone) and costs O(tenants) memory at any horizon. Driver
// replays a Stream on a vtime.Runtime as a timer chain, handing each
// Submission to a non-blocking hook at its exact virtual arrival time.
// Replays therefore compose with fault injection and with the sharded
// vtime.Domain engine, and are byte-identical at any
// -workers/-shards/-sn setting — the open-family golden tests rest on
// this.
//
// ParseArrivalSpec parses the gridbench -arrival syntax
// ("poisson:rate=0.5", "diurnal:peak=2,trough=0.2,period=24h,
// maintevery=6h,maintdur=30m"); a fuzz target holds the parser to
// never panicking and to round-tripping through ArrivalSpec.String.
package workload
