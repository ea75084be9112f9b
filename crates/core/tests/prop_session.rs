//! Property tests for the session engine: for *arbitrary* as-of dates,
//! the epoch-cached [`AnalysisSession`] answers must equal a direct
//! `reconstruct`/`route` on the same corpus — the cache may only ever
//! change the cost of a query, never its value.

use hft_core::corridor::{CME, EQUINIX_NY4};
use hft_core::reconstruct::ReconstructOptions;
use hft_core::session::AnalysisSession;
use hft_core::{reconstruct, route};
use hft_geodesy::gc_interpolate;
use hft_time::Date;
use hft_uls::{
    CallSign, FrequencyAssignment, License, LicenseId, MicrowavePath, RadioService, StationClass,
    TowerSite,
};
use proptest::prelude::*;

/// One license per hop of a straight CME→NY4 chain, granted on `grant`
/// and optionally cancelled on `cancel`.
fn chain_licenses(
    licensee: &str,
    grant: Date,
    cancel: Option<Date>,
    n: usize,
    base_id: u64,
) -> Vec<License> {
    let a = CME.position();
    let b = EQUINIX_NY4.position();
    let pos = |i: usize| gc_interpolate(&a, &b, 0.004 + (i as f64 / (n - 1) as f64) * 0.992);
    (0..n - 1)
        .map(|i| License {
            id: LicenseId(base_id + i as u64),
            call_sign: CallSign(format!("WQ{:05}", base_id + i as u64)),
            licensee: licensee.into(),
            service: RadioService::MG,
            station_class: StationClass::FXO,
            grant_date: grant,
            termination_date: None,
            cancellation_date: cancel,
            paths: vec![MicrowavePath {
                tx: TowerSite::at(pos(i)),
                rx: TowerSite::at(pos(i + 1)),
                frequencies: vec![FrequencyAssignment { center_hz: 6.1e9 }],
            }],
        })
        .collect()
}

/// (year, month, day) triples constrained to always form a valid date.
fn date_parts() -> impl Strategy<Value = Date> {
    (2012i32..=2022, 1u32..=12, 1u32..=28).prop_map(|(y, m, d)| Date::new(y, m, d).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A session-cached snapshot equals a direct reconstruction for any
    /// grant/cancel lifecycle and any sequence of query dates — including
    /// dates that land exactly on the lifecycle events.
    #[test]
    fn cached_network_equals_direct_reconstruct(
        grant in date_parts(),
        cancel in proptest::option::of(date_parts()),
        queries in proptest::collection::vec(date_parts(), 1..8),
    ) {
        // Only keep cancellations after the grant; earlier ones are
        // rejected by the generator upstream and never occur in a corpus.
        let cancel = cancel.filter(|c| *c > grant);
        let lics = chain_licenses("Prop Net", grant, cancel, 12, 1);
        let refs: Vec<&License> = lics.iter().collect();
        let session = AnalysisSession::over(lics.iter());
        let opts = ReconstructOptions::default();

        // Hit the cache in query order, plus the event dates themselves
        // (epoch boundaries — the off-by-one hot spots).
        let mut dates = queries.clone();
        dates.push(grant);
        if let Some(c) = cancel {
            dates.push(c);
        }
        for date in dates {
            let direct = reconstruct(&refs, "Prop Net", date, &opts);
            let cached = session.network_at("Prop Net", date);
            prop_assert_eq!(cached.as_of, direct.as_of);
            prop_assert_eq!(cached.tower_count(), direct.tower_count());
            prop_assert_eq!(cached.link_count(), direct.link_count());

            let direct_route = route(&direct, &CME, &EQUINIX_NY4);
            let cached_route = session.route("Prop Net", date, &CME, &EQUINIX_NY4);
            match (direct_route, cached_route) {
                (None, None) => {}
                (Some(d), Some(c)) => {
                    prop_assert_eq!(d.latency_ms.to_bits(), c.latency_ms.to_bits());
                    prop_assert_eq!(d.towers, c.towers);
                }
                (d, c) => prop_assert!(false, "connectivity differs: {:?} vs {:?}", d.is_some(), c.is_some()),
            }
        }
    }

    /// Equal epochs share one snapshot; the session never reconstructs
    /// more often than the licensee has distinct epochs.
    #[test]
    fn reconstruction_count_bounded_by_epochs(
        grant in date_parts(),
        cancel in proptest::option::of(date_parts()),
        queries in proptest::collection::vec(date_parts(), 1..12),
    ) {
        let cancel = cancel.filter(|c| *c > grant);
        let lics = chain_licenses("Prop Net", grant, cancel, 6, 1);
        let session = AnalysisSession::over(lics.iter());
        for date in &queries {
            session.network("Prop Net", *date);
        }
        let epochs = session.db().filings("Prop Net").epoch_count() as u64;
        let stats = session.stats();
        prop_assert!(
            stats.reconstructions <= epochs,
            "{} reconstructions for {} epochs",
            stats.reconstructions,
            epochs
        );
        prop_assert_eq!(stats.reconstructions + stats.network_hits, queries.len() as u64);

        // And queries with equal epochs returned the very same Arc.
        for w in queries.windows(2) {
            if session.epoch("Prop Net", w[0]) == session.epoch("Prop Net", w[1]) {
                let a = session.network("Prop Net", w[0]);
                let b = session.network("Prop Net", w[1]);
                prop_assert!(std::sync::Arc::ptr_eq(&a, &b));
            }
        }
    }
}
