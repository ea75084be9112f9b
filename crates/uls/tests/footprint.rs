//! Footprint guard for the corpus indexes: a bulk-built `UlsDatabase`
//! allocates per index key (grid cell, licensee, service/class pair),
//! never per license, and spends few bytes per license on its indexes.
//!
//! The counting allocator below sees every allocation in the process,
//! so this binary holds one test and nothing else runs beside it.

use hft_geodesy::LatLon;
use hft_time::Date;
use hft_uls::{
    CallSign, FrequencyAssignment, License, LicenseId, MicrowavePath, RadioService, StationClass,
    TowerSite, UlsDatabase, UlsPortal,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// The system allocator, counting calls and live bytes.
struct Counting;

/// `alloc` and `realloc` calls so far.
static CALLS: AtomicUsize = AtomicUsize::new(0);
/// Bytes currently allocated.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LICENSEES: usize = 40;
/// Sites sit on a `LATTICE × LATTICE` grid of points 0.3° apart, one
/// point per 0.25° grid cell.
const LATTICE: usize = 10;

fn point(k: usize) -> LatLon {
    let (i, j) = (k % LATTICE, k / LATTICE % LATTICE);
    LatLon::new(38.0 + 0.3 * i as f64, -90.0 + 0.3 * j as f64).unwrap()
}

/// `n` single-path licenses over fixed key sets: `LICENSEES` names,
/// four service/class pairs and `LATTICE²` site cells. Ids are a
/// scrambled permutation, so the id index really sorts.
fn corpus(n: usize) -> Vec<License> {
    let pairs = [
        (RadioService::MG, StationClass::FXO),
        (RadioService::CF, StationClass::FXO),
        (RadioService::MG, StationClass::FB),
        (RadioService::Other("ZZ".into()), StationClass::MO),
    ];
    (0..n)
        .map(|i| {
            let (service, station_class) = pairs[i % pairs.len()].clone();
            License {
                id: LicenseId(u64::from((i as u32).wrapping_mul(2_654_435_761))),
                call_sign: CallSign(format!("WQ{i:06}")),
                licensee: format!("Licensee {:02}", i % LICENSEES),
                service,
                station_class,
                grant_date: Date::new(2015, 1, 1).unwrap(),
                termination_date: None,
                cancellation_date: None,
                paths: vec![MicrowavePath {
                    tx: TowerSite::at(point(i)),
                    rx: TowerSite::at(point(i * 7 + 3)),
                    frequencies: vec![FrequencyAssignment { center_hz: 6.0e9 }],
                }],
            }
        })
        .collect()
}

/// Allocator calls made and bytes left live by `from_licenses` over
/// `corpus(n)`, with the database it built.
fn build(n: usize) -> (usize, isize, UlsDatabase) {
    let licenses = corpus(n);
    let calls = CALLS.load(Ordering::Relaxed);
    let live = LIVE.load(Ordering::Relaxed);
    let db = UlsDatabase::from_licenses(licenses);
    let calls = CALLS.load(Ordering::Relaxed) - calls;
    let live = LIVE.load(Ordering::Relaxed) - live;
    (calls, live, db)
}

#[test]
fn bulk_built_indexes_allocate_per_key_not_per_license() {
    let (small_calls, _, small) = build(2_000);
    let (calls, index_bytes, db) = build(4_000);
    assert_eq!(db.len(), 4_000);
    assert_eq!(db.find_call_sign("WQ003999"), Some(3_999));
    assert_eq!(db.licensee_search("Licensee 07").len(), 100);

    let cells = db.site_index().cell_count();
    let licensees = db.licensees().len();
    assert_eq!(cells, LATTICE * LATTICE);
    assert_eq!(licensees, LICENSEES);
    assert_eq!(small.site_index().cell_count(), cells);
    let key_bound = 2 * cells + 4 * licensees + 4 * 4 + 64;
    assert!(
        calls <= key_bound,
        "{calls} allocator calls for 4,000 licenses, bound {key_bound}"
    );
    assert!(
        calls <= small_calls + 8,
        "allocator calls grew with the license count: {small_calls} for 2,000, {calls} for 4,000"
    );

    let per_license = index_bytes as f64 / 4_000.0;
    assert!(
        per_license < 120.0,
        "{per_license:.1} index bytes per license"
    );
}
