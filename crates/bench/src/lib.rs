//! # hft-bench
//!
//! Benchmark harness for the workspace. The interesting contents are
//!
//! * [`load`] — the harness the load binaries share: flag parsing,
//!   byte-verifying tallies, per-generation references, the
//!   serve-under-ingest loop, self-hosting, and the stamped
//!   `BENCH_*.json` writer every bench report goes through;
//! * `src/bin/{loadgen,fleetload,httpload}.rs` — the load binaries,
//!   one per serving surface: the wire, a fleet under live ingest, and
//!   the HTTP explorer;
//! * `benches/paper.rs` — one Criterion benchmark per table and figure
//!   of the paper (E1–E10 in `DESIGN.md`), timing the full analysis
//!   pipeline behind each artifact on the pre-generated corpus;
//! * `benches/substrates.rs` — micro-benchmarks and ablations for the
//!   substrate design choices (Vincenty vs haversine, potential-pruned
//!   path enumeration vs naive DFS, codec throughput, Dijkstra);
//! * `src/bin/repro.rs` — the reproduction binary: regenerates every
//!   table/figure, prints paper-vs-measured deltas, and writes the
//!   artifacts consumed by `EXPERIMENTS.md`.

#![forbid(unsafe_code)]

pub mod load;

/// The ecosystem seed used for all published numbers.
pub const REPRO_SEED: u64 = 2020;
