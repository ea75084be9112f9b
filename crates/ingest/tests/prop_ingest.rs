//! Property-based tests for the incremental applier: for arbitrary
//! event streams chopped into arbitrary daily batches, the in-place
//! applier must land on exactly the database a from-scratch
//! `UlsDatabase::from_licenses` build over the reference model produces
//! — the license list, the site bucket grid, the `(service, class)`
//! index, and the licensee map with its lifecycle dates. A second property checks
//! that the final corpus depends only on the event sequence, never on
//! how it was split into batches. A third checks that a fleet's delta
//! publish lands every shard on exactly a fresh partition's piece, and
//! never patches a corpus a reader still holds.

use hft_geodesy::LatLon;
use hft_ingest::model::apply_events;
use hft_ingest::{Applier, CorpusSnapshot, DumpBatch, DumpEvent, ShardedStore};
use hft_time::Date;
use hft_uls::shard::{partition, ShardStrategy};
use hft_uls::{
    CallSign, FrequencyAssignment, License, LicenseId, MicrowavePath, RadioService, StationClass,
    TowerSite, UlsDatabase, UlsPortal,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

/// A compact spec for one event, over a deliberately small key space so
/// streams collide: call signs repeat (driving `NewExists`, updates and
/// cancels of live licenses), and ids repeat (driving `DuplicateId`).
#[derive(Debug, Clone)]
enum EventSpec {
    New {
        id: u64,
        call: u8,
        who: u8,
        lat: f64,
    },
    Update {
        id: u64,
        call: u8,
        who: u8,
        lat: f64,
    },
    Cancel {
        call: u8,
    },
}

fn license(id: u64, call: u8, who: u8, lat: f64, day: Date) -> License {
    let tx = TowerSite::at(LatLon::new(lat, -88.2).unwrap());
    let rx = TowerSite::at(LatLon::new(lat + 0.3, -87.6).unwrap());
    License {
        id: LicenseId(id),
        call_sign: CallSign(format!("WQ{call:03}")),
        licensee: format!("Licensee {}", who % 5),
        service: if who.is_multiple_of(3) {
            RadioService::MG
        } else {
            RadioService::CF
        },
        station_class: if who.is_multiple_of(2) {
            StationClass::FXO
        } else {
            StationClass::FB
        },
        grant_date: day,
        termination_date: None,
        cancellation_date: None,
        paths: vec![MicrowavePath {
            tx,
            rx,
            frequencies: vec![FrequencyAssignment { center_hz: 6.0e9 }],
        }],
    }
}

fn arb_event() -> impl Strategy<Value = EventSpec> {
    // New twice as often as Update/Cancel so streams actually grow.
    prop_oneof![
        (1u64..40, 0u8..12, 0u8..8, 38.0f64..45.0)
            .prop_map(|(id, call, who, lat)| EventSpec::New { id, call, who, lat }),
        (1u64..40, 0u8..12, 4u8..8, 38.0f64..45.0)
            .prop_map(|(id, call, who, lat)| EventSpec::New { id, call, who, lat }),
        (1u64..40, 0u8..12, 0u8..8, 38.0f64..45.0)
            .prop_map(|(id, call, who, lat)| EventSpec::Update { id, call, who, lat }),
        (0u8..12).prop_map(|call| EventSpec::Cancel { call }),
    ]
}

/// Render an event stream as dated batches, splitting after an event
/// whenever the matching entry of `splits` says so. Batch dates ascend
/// one day per batch; every license is stamped with its batch date so
/// updates genuinely change the record they replace.
fn to_batches(specs: &[EventSpec], splits: &[bool]) -> Vec<DumpBatch> {
    let mut batches = Vec::new();
    let mut day = Date::new(2015, 1, 1).unwrap();
    let mut events = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let event = match *spec {
            EventSpec::New { id, call, who, lat } => {
                DumpEvent::New(license(id, call, who, lat, day))
            }
            EventSpec::Update { id, call, who, lat } => {
                DumpEvent::Update(license(id, call, who, lat, day))
            }
            EventSpec::Cancel { call } => DumpEvent::Cancel {
                call_sign: CallSign(format!("WQ{call:03}")),
                date: day,
            },
        };
        events.push(event);
        if splits.get(i).copied().unwrap_or(false) {
            batches.push(DumpBatch {
                date: day,
                events: std::mem::take(&mut events),
            });
            day = day.add_days(1);
        }
    }
    if !events.is_empty() {
        batches.push(DumpBatch { date: day, events });
    }
    batches
}

fn arb_splits(max: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec((0u8..2).prop_map(|b| b == 1), 0..max)
}

fn ids(licenses: &[&License]) -> Vec<u64> {
    licenses.iter().map(|l| l.id.0).collect()
}

/// Publish `applier`'s corpus through `fleet`, then check every shard
/// against a fresh partition of it: the same corpus, indexes included,
/// and the very `Arc` it held before when its piece did not change.
fn publish_and_check(fleet: &ShardedStore, applier: &Applier) -> Result<(), TestCaseError> {
    let held: Vec<Arc<UlsDatabase>> = fleet
        .shards()
        .iter()
        .map(|s| s.current().db_arc())
        .collect();
    let before = fleet.generation_vector()[0];
    let generation = applier.publish_sharded(fleet);
    prop_assert_eq!(generation, before + 1);
    prop_assert_eq!(
        fleet.generation_vector(),
        vec![generation; fleet.shard_count()],
        "generations left lockstep"
    );
    let want = partition(applier.db(), fleet.shard_count());
    for (k, (store, piece)) in fleet.shards().iter().zip(&want).enumerate() {
        let now = store.current().db_arc();
        prop_assert!(*now == *piece, "shard {} diverged from the partition", k);
        if *held[k] == *piece {
            prop_assert!(
                Arc::ptr_eq(&now, &held[k]),
                "unchanged shard {} was copied",
                k
            );
        }
    }
    Ok(())
}

/// A reader holding one shard's snapshot, with the deep copy taken
/// when it was acquired and the batch after which it lets go.
struct Reader {
    snapshot: Arc<CorpusSnapshot>,
    acquired: UlsDatabase,
    until: usize,
}

/// Release every reader due by batch `now`, checking first that no
/// publish patched the corpus it was reading.
fn release(readers: &mut Vec<Reader>, now: usize) -> Result<(), TestCaseError> {
    for reader in readers.iter().filter(|r| r.until <= now) {
        prop_assert!(
            *reader.snapshot.db() == reader.acquired,
            "a held generation-{} corpus was patched",
            reader.snapshot.generation()
        );
    }
    readers.retain(|r| r.until > now);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_apply_equals_from_scratch_rebuild(
        specs in proptest::collection::vec(arb_event(), 0..80),
        splits in arb_splits(80),
        center in (38.0f64..45.0, -89.0f64..-87.0),
    ) {
        let batches = to_batches(&specs, &splits);
        let mut applier = Applier::new(UlsDatabase::new());
        let mut model: Vec<License> = Vec::new();
        let mut model_conflicts = 0usize;
        for batch in &batches {
            let skipped = applier.apply(batch);
            let expect = apply_events(&mut model, batch);
            prop_assert_eq!(skipped.len(), expect, "applier and model disagree on conflicts");
            model_conflicts += expect;
        }
        prop_assert_eq!(applier.stats().conflicts as usize, model_conflicts);

        // Structural equality: the license list and every secondary
        // index must match a from-scratch build over the model.
        let rebuilt = UlsDatabase::from_licenses(model.clone());
        prop_assert!(
            *applier.db() == rebuilt,
            "incrementally maintained database diverged from from-scratch rebuild",
        );

        // Belt and braces: exercise the indexes as query engines too.
        let center = LatLon::new(center.0, center.1).unwrap();
        prop_assert_eq!(
            ids(&applier.db().geographic_search(&center, 150.0)),
            ids(&rebuilt.geographic_search(&center, 150.0)),
        );
        prop_assert_eq!(
            ids(&applier.db().site_search(&RadioService::MG, &StationClass::FXO)),
            ids(&rebuilt.site_search(&RadioService::MG, &StationClass::FXO)),
        );
        prop_assert_eq!(applier.db().licensees(), rebuilt.licensees());
        prop_assert!(applier.verify().is_ok(), "Applier::verify rejected its own state");
    }

    /// Delta publish: publishing after every batch through a fleet of
    /// 1-4 shards keeps each shard equal to a fresh partition of the
    /// corpus. The stream's updates move licenses between licensees (and
    /// so between shards), and one rewind to an earlier corpus mid-stream
    /// takes the rebuild path. Readers take a
    /// shard's snapshot after some batches and hold it for 1-3 more:
    /// while one holds a corpus, a later change must copy rather than
    /// patch it, and once it lets go the corpus may be patched again.
    /// Every held corpus must still equal its copy when released.
    #[test]
    fn sharded_publish_equals_a_fresh_partition(
        specs in proptest::collection::vec(arb_event(), 0..60),
        splits in arb_splits(60),
        rewind in 0usize..64,
        holds in proptest::collection::vec((0usize..64, 0usize..4, 1usize..4), 0..8),
    ) {
        let batches = to_batches(&specs, &splits);
        let rewind_at = rewind % batches.len().max(1);
        for shards in 1..=4 {
            let mut applier = Applier::new(UlsDatabase::new());
            let strategy = ShardStrategy::LicenseeHash;
            let fleet = ShardedStore::seeded(&applier.db_arc(), shards, strategy, None);
            let mut saved = Arc::new(UlsDatabase::new());
            let mut readers = Vec::new();
            for (i, batch) in batches.iter().enumerate() {
                applier.apply(batch);
                publish_and_check(&fleet, &applier)?;
                for &(at, shard, hold) in &holds {
                    if at % batches.len() == i {
                        let snapshot = fleet.shard(shard % shards).current();
                        let acquired = snapshot.db().clone();
                        readers.push(Reader { snapshot, acquired, until: i + hold });
                    }
                }
                release(&mut readers, i)?;
                if i == rewind_at / 2 {
                    saved = Arc::new(applier.db().clone());
                }
                if i == rewind_at {
                    applier = Applier::resume(Arc::clone(&saved), applier.last_date());
                    publish_and_check(&fleet, &applier)?;
                }
            }
            release(&mut readers, usize::MAX)?;
        }
    }

    #[test]
    fn final_corpus_is_invariant_under_batch_splits(
        specs in proptest::collection::vec(arb_event(), 0..60),
        splits_a in arb_splits(60),
        splits_b in arb_splits(60),
    ) {
        // Two different choppings of the same event stream may stamp
        // licenses with different batch dates, so compare against each
        // split's own model — each must match its rebuild exactly, and
        // the two must agree on the call-sign population.
        let mut finals = Vec::new();
        for splits in [&splits_a, &splits_b] {
            let batches = to_batches(&specs, splits);
            let mut applier = Applier::new(UlsDatabase::new());
            let mut model: Vec<License> = Vec::new();
            for batch in &batches {
                applier.apply(batch);
                apply_events(&mut model, batch);
            }
            prop_assert!(*applier.db() == UlsDatabase::from_licenses(model));
            let mut calls: Vec<String> = applier
                .db()
                .licenses()
                .iter()
                .map(|l| l.call_sign.0.clone())
                .collect();
            calls.sort_unstable();
            finals.push(calls);
        }
        prop_assert_eq!(&finals[0], &finals[1]);
    }
}
