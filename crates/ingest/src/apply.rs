//! The incremental applier: folds dump batches into a `UlsDatabase`
//! **in place**, one corpus edit per event (`insert` for a new license,
//! `replace` for an update, `set_cancellation` for a cancel), each
//! maintaining every secondary index as it goes, the licensee map's
//! lifecycle dates included. Conflict checks read the corpus itself, so
//! no event waits in a buffer.
//!
//! The applier owns its working corpus as an `Arc<UlsDatabase>` and
//! mutates through [`Arc::make_mut`]: as long as nobody else holds it,
//! batches mutate in place; the moment a reader still holds it (a fleet
//! seeded from [`Applier::db_arc`] whose first publish has not landed
//! yet, an in-flight query session), the first mutation of the next
//! batch pays one corpus copy and proceeds — copy-on-write, with the
//! copy priced only when isolation actually demands it.
//! [`Applier::publish_sharded`] never hands the working corpus out: each
//! fleet shard gets its own piece (see [`crate::sharded`]), so the
//! applier keeps mutating in place across publishes.
//!
//! Incremental index maintenance is exactly the part that can silently
//! drift, so the applier also carries its own auditor:
//! [`Applier::rebuild`] constructs a fresh database from the license
//! sequence alone and [`Applier::verify`] compares it against the
//! incrementally maintained one with `UlsDatabase`'s structural
//! equality (license list **and** every index). Verification is for
//! checkpoints and tests only — it is the full rebuild the incremental
//! path exists to avoid.

use crate::delta::{DumpBatch, DumpEvent};
use crate::sharded::ShardedStore;
use hft_time::Date;
use hft_uls::{UlsDatabase, UlsPortal};
use std::sync::Arc;

/// Why an event was skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConflictKind {
    /// `New` for a call sign that already has a license.
    NewExists,
    /// `New`/`Update` whose license id belongs to a different license.
    DuplicateId(u64),
    /// `Update` for a call sign with no license.
    UpdateMissing,
    /// `Cancel` for a call sign with no license.
    CancelMissing,
}

/// One skipped event: the dump said something the corpus contradicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The batch date the event arrived in.
    pub date: Date,
    /// The call sign the event was keyed on.
    pub call_sign: String,
    /// What went wrong.
    pub kind: ConflictKind,
}

impl std::fmt::Display for Conflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match &self.kind {
            ConflictKind::NewExists => "new license but call sign already exists".to_string(),
            ConflictKind::DuplicateId(id) => {
                format!("license id {id} already belongs to another license")
            }
            ConflictKind::UpdateMissing => "update for unknown call sign".to_string(),
            ConflictKind::CancelMissing => "cancel for unknown call sign".to_string(),
        };
        write!(f, "{} {}: {}", self.date.to_iso(), self.call_sign, what)
    }
}

/// Running totals of everything an [`Applier`] has processed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Batches applied.
    pub batches: u64,
    /// Licenses newly inserted.
    pub added: u64,
    /// Licenses replaced in place.
    pub updated: u64,
    /// Cancellation dates recorded.
    pub cancelled: u64,
    /// Events skipped as conflicts.
    pub conflicts: u64,
}

impl ApplyStats {
    /// Total events applied (not counting conflicts).
    pub fn events(&self) -> u64 {
        self.added + self.updated + self.cancelled
    }
}

/// The incremental applier. See the module docs.
#[derive(Debug)]
pub struct Applier {
    db: Arc<UlsDatabase>,
    last_date: Option<Date>,
    stats: ApplyStats,
}

impl Applier {
    /// An applier starting from `seed` (use `UlsDatabase::new()` to
    /// build a corpus purely from dumps).
    pub fn new(seed: UlsDatabase) -> Applier {
        Applier {
            db: Arc::new(seed),
            last_date: None,
            stats: ApplyStats::default(),
        }
    }

    /// An applier resuming from a published snapshot's corpus.
    pub fn resume(db: Arc<UlsDatabase>, as_of: Option<Date>) -> Applier {
        Applier {
            db,
            last_date: as_of,
            stats: ApplyStats::default(),
        }
    }

    /// The working corpus.
    pub fn db(&self) -> &UlsDatabase {
        &self.db
    }

    /// The working corpus as a shared handle. While it is held, the
    /// next batch folds into a copy instead of in place.
    pub fn db_arc(&self) -> Arc<UlsDatabase> {
        Arc::clone(&self.db)
    }

    /// Running totals.
    pub fn stats(&self) -> ApplyStats {
        self.stats
    }

    /// The date of the last applied batch (or the seed's `as_of`).
    pub fn last_date(&self) -> Option<Date> {
        self.last_date
    }

    /// Fold one batch into the corpus, in event order, each event
    /// through one incremental [`UlsDatabase`] edit. Returns the skipped
    /// events; applying never fails.
    pub fn apply(&mut self, batch: &DumpBatch) -> Vec<Conflict> {
        let _span = hft_obs::span("ingest.apply");
        let started = std::time::Instant::now();
        let before = self.stats;
        let mut conflicts = Vec::new();
        let db = Arc::make_mut(&mut self.db);
        let conflict = |call: &str, kind: ConflictKind| Conflict {
            date: batch.date,
            call_sign: call.to_string(),
            kind,
        };
        for event in &batch.events {
            match event {
                DumpEvent::New(lic) => {
                    let call = &lic.call_sign.0;
                    if db.find_call_sign(call).is_some() {
                        conflicts.push(conflict(call, ConflictKind::NewExists));
                    } else if db.license_detail(lic.id).is_some() {
                        conflicts.push(conflict(call, ConflictKind::DuplicateId(lic.id.0)));
                    } else {
                        db.insert(lic.clone());
                        self.stats.added += 1;
                    }
                }
                DumpEvent::Update(lic) => {
                    let call = &lic.call_sign.0;
                    match db.find_call_sign(call) {
                        Some(idx) => {
                            let same_slot = db.licenses()[idx].id == lic.id;
                            if !same_slot && db.license_detail(lic.id).is_some() {
                                conflicts.push(conflict(call, ConflictKind::DuplicateId(lic.id.0)));
                            } else {
                                db.replace(idx, lic.clone());
                                self.stats.updated += 1;
                            }
                        }
                        None => conflicts.push(conflict(call, ConflictKind::UpdateMissing)),
                    }
                }
                DumpEvent::Cancel { call_sign, date } => match db.find_call_sign(&call_sign.0) {
                    Some(idx) => {
                        db.set_cancellation(idx, Some(*date));
                        self.stats.cancelled += 1;
                    }
                    None => conflicts.push(conflict(&call_sign.0, ConflictKind::CancelMissing)),
                },
            }
        }
        self.stats.batches += 1;
        self.stats.conflicts += conflicts.len() as u64;
        self.last_date = Some(batch.date);
        // Mirror this batch's deltas into the global registry.
        let registry = hft_obs::global();
        registry.counter("ingest.batches").incr();
        registry
            .counter("ingest.added")
            .add(self.stats.added - before.added);
        registry
            .counter("ingest.updated")
            .add(self.stats.updated - before.updated);
        registry
            .counter("ingest.cancelled")
            .add(self.stats.cancelled - before.cancelled);
        registry
            .counter("ingest.conflicts")
            .add(conflicts.len() as u64);
        registry
            .histogram("ingest.apply_ns")
            .record(started.elapsed().as_nanos() as u64);
        conflicts
    }

    /// Publish the working corpus across a fleet's shards: every shard
    /// store advances one generation in lockstep, and only the shards
    /// whose piece of the corpus changed get a new corpus. See
    /// [`ShardedStore::publish_full`].
    pub fn publish_sharded(&self, fleet: &ShardedStore) -> u64 {
        fleet.publish_full(&self.db, self.last_date)
    }

    /// The from-scratch rebuild: a fresh database from the license
    /// sequence alone. Verification only — this is the full-index build
    /// the incremental path exists to avoid.
    pub fn rebuild(&self) -> UlsDatabase {
        UlsDatabase::from_licenses(self.db.licenses().to_vec())
    }

    /// Check the incrementally maintained database against
    /// [`Applier::rebuild`] (structural equality over the license list
    /// and every secondary index).
    pub fn verify(&self) -> Result<(), String> {
        if *self.db == self.rebuild() {
            Ok(())
        } else {
            Err(format!(
                "incremental corpus diverged from rebuild at {} licenses (after {} batches)",
                self.db.len(),
                self.stats.batches
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DumpBatch;
    use hft_geodesy::LatLon;
    use hft_uls::shard::ShardStrategy;
    use hft_uls::{
        CallSign, FrequencyAssignment, License, LicenseId, MicrowavePath, RadioService,
        StationClass, TowerSite,
    };

    fn d(y: i32, m: u32, day: u32) -> Date {
        Date::new(y, m, day).unwrap()
    }

    fn lic(id: u64, call: &str, licensee: &str, lat: f64) -> License {
        let tx = TowerSite::at(LatLon::new(lat, -88.17).unwrap());
        let rx = TowerSite::at(LatLon::new(lat + 0.2, -87.67).unwrap());
        License {
            id: LicenseId(id),
            call_sign: CallSign(call.into()),
            licensee: licensee.into(),
            service: RadioService::MG,
            station_class: StationClass::FXO,
            grant_date: d(2015, 6, 17),
            termination_date: None,
            cancellation_date: None,
            paths: vec![MicrowavePath {
                tx,
                rx,
                frequencies: vec![FrequencyAssignment { center_hz: 6.1e9 }],
            }],
        }
    }

    fn batch(date: Date, events: Vec<DumpEvent>) -> DumpBatch {
        DumpBatch { date, events }
    }

    #[test]
    fn new_update_cancel_lifecycle() {
        let mut ap = Applier::new(UlsDatabase::new());
        let conflicts = ap.apply(&batch(
            d(2015, 6, 17),
            vec![
                DumpEvent::New(lic(1, "WQ1", "Alpha", 41.0)),
                DumpEvent::New(lic(2, "WQ2", "Beta", 42.0)),
            ],
        ));
        assert!(conflicts.is_empty());
        assert_eq!(ap.db().len(), 2);
        ap.verify().unwrap();

        // Update relocates WQ2 and renames its licensee.
        let moved = lic(2, "WQ2", "Gamma", 45.0);
        let conflicts = ap.apply(&batch(d(2016, 1, 5), vec![DumpEvent::Update(moved)]));
        assert!(conflicts.is_empty());
        assert_eq!(ap.db().licenses()[1].licensee, "Gamma");
        assert_eq!(ap.db().licensees(), vec!["Alpha", "Gamma"]);
        ap.verify().unwrap();

        let conflicts = ap.apply(&batch(
            d(2018, 3, 1),
            vec![DumpEvent::Cancel {
                call_sign: CallSign("WQ1".into()),
                date: d(2018, 3, 1),
            }],
        ));
        assert!(conflicts.is_empty());
        assert_eq!(ap.db().licenses()[0].cancellation_date, Some(d(2018, 3, 1)));
        ap.verify().unwrap();
        assert_eq!(ap.stats().events(), 4);
        assert_eq!(ap.stats().batches, 3);
    }

    #[test]
    fn conflicts_are_recorded_and_skipped() {
        let mut ap = Applier::new(UlsDatabase::new());
        ap.apply(&batch(
            d(2015, 1, 1),
            vec![DumpEvent::New(lic(1, "WQ1", "Alpha", 41.0))],
        ));
        let conflicts = ap.apply(&batch(
            d(2015, 1, 2),
            vec![
                // Same call sign again.
                DumpEvent::New(lic(9, "WQ1", "Alpha", 41.0)),
                // Same id under a new call sign.
                DumpEvent::New(lic(1, "WQ9", "Alpha", 41.0)),
                // Update of a call sign that never existed.
                DumpEvent::Update(lic(3, "WQ3", "Beta", 42.0)),
                // Cancel of a call sign that never existed.
                DumpEvent::Cancel {
                    call_sign: CallSign("WQ4".into()),
                    date: d(2015, 1, 2),
                },
                // In-batch duplicate: first New buffers, second conflicts.
                DumpEvent::New(lic(5, "WQ5", "Beta", 43.0)),
                DumpEvent::New(lic(6, "WQ5", "Beta", 43.0)),
            ],
        ));
        let kinds: Vec<&ConflictKind> = conflicts.iter().map(|c| &c.kind).collect();
        assert_eq!(
            kinds,
            vec![
                &ConflictKind::NewExists,
                &ConflictKind::DuplicateId(1),
                &ConflictKind::UpdateMissing,
                &ConflictKind::CancelMissing,
                &ConflictKind::NewExists,
            ]
        );
        assert_eq!(ap.db().len(), 2, "only WQ1 and WQ5 exist");
        assert_eq!(ap.stats().conflicts, 5);
        ap.verify().unwrap();
    }

    #[test]
    fn copy_on_write_isolates_published_generations() {
        let mut ap = Applier::new(UlsDatabase::new());
        ap.apply(&batch(
            d(2015, 1, 1),
            vec![DumpEvent::New(lic(1, "WQ1", "Alpha", 41.0))],
        ));
        let fleet = ShardedStore::seeded(
            &Arc::new(UlsDatabase::new()),
            1,
            ShardStrategy::LicenseeHash,
            None,
        );
        ap.publish_sharded(&fleet);
        let held = fleet.shard(0).current();
        assert_eq!(held.db().len(), 1);
        assert_eq!(held.as_of(), Some(d(2015, 1, 1)));

        // The next mutation must not disturb the held generation.
        ap.apply(&batch(
            d(2015, 1, 2),
            vec![DumpEvent::New(lic(2, "WQ2", "Beta", 42.0))],
        ));
        assert_eq!(ap.db().len(), 2);
        assert_eq!(held.db().len(), 1, "published snapshot is immutable");
        assert_eq!(ap.publish_sharded(&fleet), 2);
        assert_eq!(fleet.shard(0).current().db().len(), 2);
        ap.verify().unwrap();
    }

    #[test]
    fn update_changes_propagate_to_every_index() {
        let mut ap = Applier::new(UlsDatabase::new());
        ap.apply(&batch(
            d(2015, 1, 1),
            vec![
                DumpEvent::New(lic(1, "WQ1", "Alpha", 41.0)),
                DumpEvent::New(lic(2, "WQ2", "Alpha", 41.1)),
            ],
        ));
        let mut moved = lic(2, "WQ2", "Beta", 48.0);
        moved.station_class = StationClass::FB;
        ap.apply(&batch(d(2016, 1, 1), vec![DumpEvent::Update(moved)]));
        let db = ap.db();
        // Geographic index: gone from the old cell, present in the new.
        let old_site = LatLon::new(41.1, -88.17).unwrap();
        let new_site = LatLon::new(48.0, -88.17).unwrap();
        assert!(!db
            .geographic_search(&old_site, 1.0)
            .iter()
            .any(|l| l.id.0 == 2));
        assert!(db
            .geographic_search(&new_site, 1.0)
            .iter()
            .any(|l| l.id.0 == 2));
        // Service/class index follows the class change.
        assert!(db
            .site_search(&RadioService::MG, &StationClass::FB)
            .iter()
            .any(|l| l.id.0 == 2));
        assert!(!db
            .site_search(&RadioService::MG, &StationClass::FXO)
            .iter()
            .any(|l| l.id.0 == 2));
        ap.verify().unwrap();
    }
}
