//! # hft-core
//!
//! The primary contribution of the IMC'20 paper, as a library: given a
//! corpus of FCC ULS license records, reconstruct each licensee's
//! microwave network *as of any date*, and analyze it the way the paper
//! does.
//!
//! The pipeline (§2.3 of the paper):
//!
//! 1. [`reconstruct`](mod@reconstruct) — select the licensee's licenses
//!    active on the as-of date, snap tower coordinates to a
//!    one-arc-second grid, and stitch links sharing a tower into a
//!    [`Network`] graph.
//! 2. [`route`](mod@route) — augment the network with the two data
//!    centers, adding geodesic *fiber* tails (at `2c/3`) from each data
//!    center to every tower within 50 km, and run Dijkstra with one-way
//!    propagation latency as the edge cost (air at `c` for microwave
//!    links).
//! 3. [`metrics`] — alternate path availability (APA), link-length and
//!    frequency CDFs over low-latency paths, as in §5.
//! 4. [`evolution`] — longitudinal latency and active-license series, as
//!    in §4 (Figs 1 and 2).
//! 5. [`yaml`] — the human-readable YAML network dump the paper's tool
//!    publishes, with a matching parser.
//!
//! ```
//! use hft_core::corridor;
//!
//! let cme = corridor::CME;
//! let ny4 = corridor::EQUINIX_NY4;
//! let d_km = cme.position().geodesic_distance_m(&ny4.position()) / 1000.0;
//! assert!((d_km - 1186.0).abs() < 0.5); // the paper's Table 2 distance
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod corridor;
pub mod design;
pub mod entity;
pub mod evolution;
pub mod memo;
pub mod metrics;
pub mod network;
pub mod overhead;
pub mod reconstruct;
pub mod route;
pub mod session;
pub mod weather;
pub mod yaml;

pub use cdf::Cdf;
pub use corridor::DataCenter;
pub use network::{MwLink, Network, Tower};
pub use reconstruct::{reconstruct, ReconstructOptions};
pub use route::{route, Route, RoutingGraph};
pub use session::{par_map, AnalysisSession, RouteMemo, SessionStats, StatsSnapshot};
