//! # hft-uls
//!
//! A faithful, offline stand-in for the FCC Universal Licensing System
//! (ULS) as the IMC'20 paper uses it. The paper's methodology (§2) is a
//! sequence of *queries* over license records — geographic radius search,
//! site-based filtering on radio service code `MG` and station class
//! `FXO`, per-licensee license listing, and per-license detail pages —
//! followed by a filtering funnel (57 geographic candidates → 29
//! licensees with ≥ 11 filings). This crate provides:
//!
//! * [`License`] and friends — the record schema (grant/cancellation/
//!   termination dates, transmitter and receiver tower coordinates with
//!   ground elevation and structure height, per-path operating
//!   frequencies);
//! * [`flatfile`] — a pipe-delimited flat-file codec modeled on the real
//!   ULS daily-dump record types (`HD`, `EN`, `LO`, `PA`, `FR`), so
//!   datasets can be exported, versioned and re-imported;
//! * [`UlsDatabase`] — an in-memory portal implementing the
//!   [`UlsPortal`] search interfaces the paper drives over HTTP, backed
//!   by a [`SiteIndex`] bucket grid (geographic searches visit only
//!   candidate cells) and a service/class index (site searches stop
//!   scanning the corpus);
//! * [`scrape`] — the paper's §2.2 pipeline, producing both the candidate
//!   licensee set and a [`scrape::FunnelReport`] with the funnel counts.
//!
//! ```
//! use hft_uls::flatfile;
//!
//! let text = "\
//! HD|7|WQ00007|MG|FXO|06/17/2015||
//! EN|7|Example Networks
//! LO|7|1|41-45-45.0 N|88-10-16.4 W|230.0|110.0
//! LO|7|2|41-42-00.0 N|87-36-00.0 W|221.0|95.0
//! PA|7|1|1|2
//! FR|7|1|6175.00000
//! ";
//! let licenses = flatfile::decode(text).unwrap();
//! assert_eq!(licenses.len(), 1);
//! assert_eq!(licenses[0].licensee, "Example Networks");
//! assert!((licenses[0].paths[0].length_km() - 48.0).abs() < 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flatfile;
mod license;
mod portal;
pub mod scrape;
pub mod shard;
mod siteindex;

pub use license::{
    CallSign, FrequencyAssignment, License, LicenseId, LicenseStatus, MicrowavePath, RadioService,
    StationClass, TowerSite,
};
pub use portal::{Filings, UlsDatabase, UlsPortal};
pub use shard::ShardStrategy;
pub use siteindex::{SiteIndex, CELL_DEG};
