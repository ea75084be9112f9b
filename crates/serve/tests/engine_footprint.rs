//! Footprint guard for engine builds: `Service::over_snapshot`, the
//! engine a fleet shard builds whenever a publish brings it a new
//! corpus, reads the corpus's licensee map and walks no license, so its
//! allocations do not grow with the corpus.
//!
//! The counting allocator below sees every allocation in the process,
//! so this binary holds one test and nothing else runs beside it.

use hft_geodesy::LatLon;
use hft_serve::{ServeStats, Service};
use hft_time::Date;
use hft_uls::{
    CallSign, FrequencyAssignment, License, LicenseId, MicrowavePath, RadioService, StationClass,
    TowerSite, UlsDatabase,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting calls.
struct Counting;

/// `alloc` and `realloc` calls so far.
static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LICENSEES: usize = 40;

/// `n` single-path licenses filed under `LICENSEES` names, each granted
/// on one of 12 dates and every third one cancelled, so each licensee
/// has several epochs.
fn corpus(n: usize) -> Vec<License> {
    let site = |k: usize| {
        let (i, j) = (k % 10, k / 10 % 10);
        TowerSite::at(LatLon::new(38.0 + 0.3 * i as f64, -90.0 + 0.3 * j as f64).unwrap())
    };
    (0..n)
        .map(|i| License {
            id: LicenseId(i as u64 + 1),
            call_sign: CallSign(format!("WQ{i:06}")),
            licensee: format!("Licensee {:02}", i % LICENSEES),
            service: RadioService::MG,
            station_class: StationClass::FXO,
            grant_date: Date::new(2013 + (i % 6) as i32, 1 + (i % 2) as u32 * 6, 1).unwrap(),
            termination_date: None,
            cancellation_date: (i % 3 == 0).then(|| Date::new(2019, 3, 1).unwrap()),
            paths: vec![MicrowavePath {
                tx: site(i),
                rx: site(i * 7 + 3),
                frequencies: vec![FrequencyAssignment { center_hz: 6.0e9 }],
            }],
        })
        .collect()
}

/// Allocator calls made by building one engine over `db`.
fn build(db: &Arc<UlsDatabase>, stats: &Arc<ServeStats>) -> usize {
    let calls = CALLS.load(Ordering::Relaxed);
    let engine = Service::over_snapshot(Arc::clone(db), 1, Arc::clone(stats));
    let calls = CALLS.load(Ordering::Relaxed) - calls;
    drop(engine);
    calls
}

#[test]
fn engine_builds_allocate_independently_of_the_corpus() {
    let stats = Arc::new(ServeStats::default());
    let small = Arc::new(UlsDatabase::from_licenses(corpus(2_000)));
    let large = Arc::new(UlsDatabase::from_licenses(corpus(4_000)));
    assert_eq!(large.licensees().len(), LICENSEES);
    assert!(large.filings("Licensee 07").epoch_count() > 3);
    // The first build registers the engine's metrics; count the rest.
    build(&small, &stats);
    let small_calls = build(&small, &stats);
    let calls = build(&large, &stats);
    assert!(
        calls <= small_calls + 8,
        "engine allocations grew with the license count: {small_calls} for 2,000, \
         {calls} for 4,000"
    );
    assert!(
        calls <= 32,
        "{calls} allocator calls for one engine over 4,000 licenses"
    );
}
