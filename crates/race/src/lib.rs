//! # hft-race
//!
//! A latency-race scenario engine: for a pair of sites, race every
//! substrate the repo can model against the vacuum geodesic limit and
//! report who wins, by how much, and how often weather takes the
//! winner out.
//!
//! The racers:
//!
//! * **terrestrial microwave** — the corpus-reconstructed route from the
//!   analysis session (real towers, real licensed links), so the answer
//!   is corpus-dependent and generation-pinned by whoever owns the
//!   engine;
//! * **fiber** — refraction-index-weighted great-circle at `2c/3` with
//!   the blended route stretch from [`hft_leo::fiber_latency_ms`];
//! * **LEO** — shortest up/ISL/down path through a Walker constellation
//!   ([`hft_leo::Constellation`]);
//! * **vacuum** — the geodesic at `c`, the bound nothing beats.
//!
//! The weather leg reuses the §5 Monte Carlo
//! ([`hft_core::weather::conditional_latency_on`]), deterministic per
//! seed, and its outcomes are memoized ([`hft_core::memo::Memo`]) per
//! `(licensee, epoch, pair, samples, seed)` in
//! [`RaceEngine::weather_windows`], which also answers the serve
//! layer's `Weather` requests. Repeated races and weather queries over a
//! stable corpus epoch, and a race after a weather query with the same
//! samples and seed, are cache hits — observable as
//! `race.mc_cache{outcome=hit|miss}` in the global registry, alongside
//! the `race.compute_ns` histogram.
//!
//! ```
//! use hft_race::RaceEngine;
//! use hft_core::corridor::{CME, EQUINIX_NY4};
//! use hft_core::session::AnalysisSession;
//!
//! let session = AnalysisSession::over([]);
//! let engine = RaceEngine::new();
//! let date = hft_time::Date::new(2020, 4, 1).unwrap();
//! let race = engine
//!     .race(&session, "Nobody", date, &CME, &EQUINIX_NY4, "starlink", 50, 7)
//!     .unwrap();
//! // Empty corpus: no microwave leg, but the race still has a winner.
//! assert!(race.microwave_ms.is_none());
//! assert!(race.fiber_ms > race.c_bound_ms);
//! assert_ne!(race.winner, "microwave");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod sweep;

pub use engine::{RaceEngine, RaceOutcome};
pub use sweep::{stretch_cdf, StretchEntry};
