//! Per-shard snapshot publication for the serving fleet.
//!
//! A [`ShardedStore`] owns one [`SnapshotStore`] per fleet shard and
//! cuts every published full corpus into shard pieces, so shard *k*'s
//! generation *g* always holds exactly the shard-*k* piece of the full
//! corpus at generation *g*:
//!
//! * all shards are seeded at generation 0 from one partition of the
//!   seed corpus, and
//! * [`ShardedStore::publish_full`] advances every shard exactly once,
//!   in shard order, so generations stay in lockstep.
//!
//! A publish costs in proportion to what it changed, not to the corpus.
//! Each shard's new piece is diffed against the corpus that shard
//! already serves: a shard whose piece did not change republishes the
//! same corpus `Arc` (so its serving engine relabels instead of
//! rebuilding), a shard whose piece only grew or edited licenses in
//! place gets a patched copy, and only a shard whose licenses moved
//! (a rewind, a licensee changing shards) is rebuilt from its piece.
//! Every path lands on the same corpus, indexes included, that
//! partitioning the full corpus would give.
//!
//! The lockstep invariant is what makes a *generation vector* (one
//! number per shard) meaningful: a uniform vector `[g, g, …]` names one
//! coherent full-corpus state, and the concurrent-ingest fleet bench
//! brackets each scatter-gathered answer between two vector reads to
//! decide which full corpus to verify the bytes against.

use crate::store::SnapshotStore;
use hft_time::Date;
use hft_uls::shard::{partition, pieces, ShardStrategy};
use hft_uls::{License, UlsDatabase};
use std::sync::Arc;

/// A fleet of per-shard snapshot stores publishing in lockstep.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Arc<SnapshotStore>>,
    strategy: ShardStrategy,
}

impl ShardedStore {
    /// Partition `db` into `shards` pieces under `strategy` and seed
    /// one store per shard at generation 0.
    ///
    /// # Panics
    /// Panics when `shards` is zero.
    pub fn seeded(
        db: &UlsDatabase,
        shards: usize,
        strategy: ShardStrategy,
        as_of: Option<Date>,
    ) -> ShardedStore {
        let parts = partition(db, shards, strategy);
        ShardedStore {
            shards: parts
                .shards
                .into_iter()
                .enumerate()
                .map(|(k, sdb)| {
                    Arc::new(SnapshotStore::seeded_shard(Arc::new(sdb), as_of, k as u32))
                })
                .collect(),
            strategy,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The partitioning strategy.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// The per-shard stores, in shard order.
    pub fn shards(&self) -> &[Arc<SnapshotStore>] {
        &self.shards
    }

    /// One shard's store.
    pub fn shard(&self, k: usize) -> &Arc<SnapshotStore> {
        &self.shards[k]
    }

    /// Every shard's current generation, in shard order. Uniform except
    /// momentarily inside [`ShardedStore::publish_full`].
    pub fn generation_vector(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.generation()).collect()
    }

    /// Partition the full corpus `db` and publish each piece to its
    /// shard, in shard order. Returns the new (common) generation.
    ///
    /// Every shard advances, but only a shard whose piece changed gets a
    /// new corpus (see the module docs); the rest republish the corpus
    /// they hold. All pieces are built before the first shard publishes,
    /// so the window in which readers can observe a mixed generation
    /// vector spans only the pointer swaps. Readers detect it by reading
    /// [`ShardedStore::generation_vector`] around their query, exactly
    /// as single-store readers bracket with
    /// [`SnapshotStore::generation`].
    pub fn publish_full(&self, db: &UlsDatabase, as_of: Option<Date>) -> u64 {
        let next: Vec<Arc<UlsDatabase>> = self
            .shards
            .iter()
            .zip(pieces(db, self.shards.len(), self.strategy))
            .map(|(store, piece)| advance(store.current().db_arc(), &piece))
            .collect();
        let mut generation = 0;
        for (store, sdb) in self.shards.iter().zip(next) {
            generation = store.publish(sdb, as_of);
        }
        generation
    }
}

/// One shard's corpus moved on to `piece`, its licenses in corpus
/// order. Returns `held` itself when the piece is unchanged. When the
/// held licenses are an id-for-id prefix of the piece, returns a copy
/// patched in place: edited licenses through [`UlsDatabase::replace`],
/// new ones appended through [`UlsDatabase::extend`]. Anything else is
/// rebuilt from the piece.
fn advance(held: Arc<UlsDatabase>, piece: &[&License]) -> Arc<UlsDatabase> {
    let old = held.licenses();
    let prefix = old.len() <= piece.len() && old.iter().zip(piece).all(|(a, b)| a.id == b.id);
    if !prefix {
        let licenses = piece.iter().map(|&l| l.clone()).collect();
        return Arc::new(UlsDatabase::from_licenses(licenses));
    }
    let edited: Vec<usize> = (0..old.len()).filter(|&i| old[i] != *piece[i]).collect();
    if edited.is_empty() && old.len() == piece.len() {
        return held;
    }
    let mut db = UlsDatabase::clone(&held);
    for i in edited {
        db.replace(i, piece[i].clone());
    }
    db.extend(piece[old.len()..].iter().map(|&l| l.clone()));
    Arc::new(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hft_geodesy::LatLon;
    use hft_uls::{
        CallSign, FrequencyAssignment, License, LicenseId, MicrowavePath, RadioService,
        StationClass, TowerSite, UlsPortal,
    };

    fn lic(id: u64, name: &str, lat: f64) -> License {
        License {
            id: LicenseId(id),
            call_sign: CallSign(format!("WQ{id:05}")),
            licensee: name.into(),
            service: RadioService::MG,
            station_class: StationClass::FXO,
            grant_date: Date::new(2015, 1, 1).unwrap(),
            termination_date: None,
            cancellation_date: None,
            paths: vec![MicrowavePath {
                tx: TowerSite::at(LatLon::new(lat, -88.0).unwrap()),
                rx: TowerSite::at(LatLon::new(lat + 0.2, -87.6).unwrap()),
                frequencies: vec![FrequencyAssignment { center_hz: 6.1e9 }],
            }],
        }
    }

    #[test]
    fn seeds_in_lockstep_and_publishes_advance_together() {
        let seed = UlsDatabase::from_licenses(vec![
            lic(1, "Alpha Networks", 41.0),
            lic(2, "Beta Microwave", 41.5),
        ]);
        let fleet = ShardedStore::seeded(&seed, 4, ShardStrategy::LicenseeHash, None);
        assert_eq!(fleet.shard_count(), 4);
        assert_eq!(fleet.generation_vector(), vec![0, 0, 0, 0]);
        let seeded: usize = fleet.shards().iter().map(|s| s.current().db().len()).sum();
        assert_eq!(seeded, 2);

        let next = UlsDatabase::from_licenses(vec![
            lic(1, "Alpha Networks", 41.0),
            lic(2, "Beta Microwave", 41.5),
            lic(3, "Gamma Wireless", 42.0),
        ]);
        let d = Date::new(2016, 3, 4).unwrap();
        assert_eq!(fleet.publish_full(&next, Some(d)), 1);
        assert_eq!(fleet.generation_vector(), vec![1, 1, 1, 1]);
        let total: usize = fleet.shards().iter().map(|s| s.current().db().len()).sum();
        assert_eq!(total, 3);
        for store in fleet.shards() {
            assert_eq!(store.current().as_of(), Some(d));
        }
    }

    #[test]
    fn shard_pieces_are_the_partition() {
        let seed = UlsDatabase::from_licenses(vec![
            lic(1, "Alpha Networks", 41.0),
            lic(2, "Beta Microwave", 41.5),
            lic(3, "Gamma Wireless", 42.0),
        ]);
        let fleet = ShardedStore::seeded(&seed, 3, ShardStrategy::SpatialCell, None);
        // Each license is on exactly one shard, and shard stores carry
        // their shard number for telemetry labeling.
        for l in seed.licenses() {
            let holders = fleet
                .shards()
                .iter()
                .filter(|s| s.current().db().license_detail(l.id).is_some())
                .count();
            assert_eq!(holders, 1);
        }
        for (k, store) in fleet.shards().iter().enumerate() {
            assert_eq!(store.shard(), Some(k as u32));
        }
    }
}
