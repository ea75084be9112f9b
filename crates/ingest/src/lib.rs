//! # hft-ingest
//!
//! Incremental daily-dump ingestion for the ULS corpus — the subsystem
//! that turns the frozen load-at-startup reproduction into a live
//! service. Real FCC ULS data arrives as weekly full dumps plus *daily
//! transaction dumps*; the paper's longitudinal story (§6, Figs 1–2) is
//! exactly a corpus mutating over 2013–2020. This crate provides the
//! four pieces that model that pipeline:
//!
//! * [`delta`] — a transaction-dump codec extending the
//!   [`hft_uls::flatfile`] dialect: dated batches of `TX`-framed
//!   `HD`/`EN`/`LO`/`PA`/`FR` record groups with new/update/cancel
//!   semantics keyed by call sign. Malformed transactions are
//!   *quarantined* (counted and skipped, never aborting the batch) —
//!   the robustness posture of a production scraper.
//! * [`apply`] — an [`apply::Applier`] that folds decoded batches into a
//!   [`hft_uls::UlsDatabase`] **in place**, one corpus edit per event,
//!   maintaining every secondary index (site bucket grid, `(service,
//!   class)` index, the licensee map with its lifecycle dates)
//!   incrementally, plus a from-scratch rebuild path used only to
//!   verify the incremental state.
//! * [`store`] — a copy-on-write [`store::SnapshotStore`]: corpus
//!   generations published as `Arc` swaps, so every in-flight analysis
//!   finishes against the generation it started on while new queries
//!   see the new corpus.
//! * [`replay`] and [`follow`] — a driver that renders a corpus's
//!   2013–2020 event history as a directory of daily dumps, and a
//!   follower that tails such a directory.
//!
//! [`model`] holds the deliberately-naive reference interpreter the
//! verification paths replay events through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apply;
pub mod delta;
pub mod follow;
pub mod model;
pub mod replay;
pub mod sharded;
pub mod store;

pub use apply::{Applier, ApplyStats, Conflict, ConflictKind};
pub use delta::{
    decode_batch, encode_batch, BatchError, DecodeReport, DumpBatch, DumpEvent, QuarantineReason,
    Quarantined,
};
pub use follow::DumpFollower;
pub use replay::{render_history, write_dump, write_dump_dir};
pub use sharded::ShardedStore;
pub use store::{CorpusSnapshot, SnapshotStore};
