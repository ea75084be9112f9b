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
//! place gets a patched corpus, and only a shard whose licenses moved
//! (a rewind, a license filed under a new licensee) is rebuilt from its
//! piece. Every path lands on the same corpus, indexes included, that
//! partitioning the full corpus would give.
//!
//! A patched corpus is built in the allocation the shard *retired* at
//! its last replacing publish whenever that is safe, not in a fresh
//! copy of the one it serves. Each shard keeps that one retired corpus
//! and patches it in place only when `Arc::get_mut` succeeds, that is,
//! when no snapshot, engine or in-flight request still reads it, and
//! when its licenses are an id-for-id prefix of the new piece. Anything
//! else copies the served corpus, as every patch did before. Every
//! shard publish counts its path in `ingest.shard_publishes{path}`.
//!
//! The lockstep invariant is what makes a *generation vector* (one
//! number per shard) meaningful: a uniform vector `[g, g, …]` names one
//! coherent full-corpus state, and the concurrent-ingest fleet bench
//! brackets each scatter-gathered answer between two vector reads to
//! decide which full corpus to verify the bytes against.

use crate::store::SnapshotStore;
use hft_obs::Counter;
use hft_time::Date;
use hft_uls::shard::{partition, pieces, ShardStrategy};
use hft_uls::{License, UlsDatabase};
use std::sync::{Arc, Mutex};

/// A fleet of per-shard snapshot stores publishing in lockstep.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Arc<SnapshotStore>>,
    /// Per shard, the corpus its last replacing publish retired: the
    /// allocation its next change patches once nobody reads it. The
    /// lock is held for a whole publish, so publishes never interleave.
    retired: Mutex<Vec<Option<Arc<UlsDatabase>>>>,
    /// `ingest.shard_publishes{path}`, indexed by `Path`, resolved
    /// once.
    paths: [Arc<Counter>; 4],
}

impl ShardedStore {
    /// Partition `db` into `shards` pieces by licensee name and seed
    /// one store per shard at generation 0. A one-shard store serves
    /// `db` itself rather than a copy. The strategy argument has one
    /// value and is ignored: the `hftbench` fixture still passes it.
    ///
    /// # Panics
    /// Panics when `shards` is zero.
    pub fn seeded(
        db: &Arc<UlsDatabase>,
        shards: usize,
        _strategy: ShardStrategy,
        as_of: Option<Date>,
    ) -> ShardedStore {
        let corpora: Vec<Arc<UlsDatabase>> = if shards == 1 {
            vec![Arc::clone(db)]
        } else {
            partition(db, shards).into_iter().map(Arc::new).collect()
        };
        let registry = hft_obs::global();
        ShardedStore {
            shards: corpora
                .into_iter()
                .enumerate()
                .map(|(k, sdb)| Arc::new(SnapshotStore::seeded(sdb, as_of, k as u32)))
                .collect(),
            retired: Mutex::new(vec![None; shards]),
            paths: Path::ALL
                .map(|path| registry.counter_with("ingest.shard_publishes", "path", path.name())),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
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
        let mut retired = self.retired.lock().expect("retired corpora");
        let held: Vec<Arc<UlsDatabase>> =
            self.shards.iter().map(|s| s.current().db_arc()).collect();
        let next: Vec<(Arc<UlsDatabase>, Path)> = held
            .iter()
            .zip(retired.iter_mut())
            .zip(pieces(db, self.shards.len()))
            .map(|((held, retired), piece)| advance(held, retired, &piece))
            .collect();
        let mut generation = 0;
        for (((store, held), retired), (sdb, path)) in self
            .shards
            .iter()
            .zip(held)
            .zip(retired.iter_mut())
            .zip(next)
        {
            self.paths[path as usize].incr();
            generation = store.publish(sdb, as_of);
            if path != Path::Kept {
                *retired = Some(held);
            }
        }
        generation
    }
}

/// How one publish advanced one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// The piece is unchanged: the shard republishes its corpus.
    Kept,
    /// The shard's retired corpus was patched in place.
    Recycled,
    /// A copy of the served corpus was patched: a reader still held
    /// the retired one, or it was not a prefix of the piece, or there
    /// was none yet.
    Copied,
    /// The piece is not an id-for-id extension of the served corpus,
    /// so it was built from scratch.
    Rebuilt,
}

impl Path {
    const ALL: [Path; 4] = [Path::Kept, Path::Recycled, Path::Copied, Path::Rebuilt];

    fn name(self) -> &'static str {
        match self {
            Path::Kept => "kept",
            Path::Recycled => "recycled",
            Path::Copied => "copied",
            Path::Rebuilt => "rebuilt",
        }
    }
}

/// One shard's corpus moves from `held` on to `piece`, its licenses in
/// corpus order. Returns `held` itself when the piece is unchanged.
/// When the held licenses are an id-for-id prefix of the piece, returns
/// a patched corpus: the shard's `retired` one, taken, when nothing
/// else reads it and it is a prefix too, else a copy of `held`.
/// Anything else is rebuilt from the piece.
fn advance(
    held: &Arc<UlsDatabase>,
    retired: &mut Option<Arc<UlsDatabase>>,
    piece: &[&License],
) -> (Arc<UlsDatabase>, Path) {
    if !is_prefix(held, piece) {
        let licenses = piece.iter().map(|&l| l.clone()).collect();
        return (
            Arc::new(UlsDatabase::from_licenses(licenses)),
            Path::Rebuilt,
        );
    }
    if held.len() == piece.len() && held.licenses().iter().zip(piece).all(|(a, &b)| a == b) {
        return (Arc::clone(held), Path::Kept);
    }
    if let Some(mut db) = retired.take() {
        if let Some(base) = Arc::get_mut(&mut db).filter(|base| is_prefix(base, piece)) {
            patch(base, piece);
            return (db, Path::Recycled);
        }
    }
    let mut db = UlsDatabase::clone(held);
    patch(&mut db, piece);
    (Arc::new(db), Path::Copied)
}

/// Whether `db`'s licenses are an id-for-id prefix of `piece`.
fn is_prefix(db: &UlsDatabase, piece: &[&License]) -> bool {
    let old = db.licenses();
    old.len() <= piece.len() && old.iter().zip(piece).all(|(a, b)| a.id == b.id)
}

/// Turn `base`, an id-for-id prefix of `piece`, into `piece`: each
/// license that differs is swapped in through [`UlsDatabase::replace`],
/// and the new ones are appended through [`UlsDatabase::extend`].
fn patch(base: &mut UlsDatabase, piece: &[&License]) {
    let old = base.len();
    for (i, &license) in piece[..old].iter().enumerate() {
        if base.licenses()[i] != *license {
            base.replace(i, license.clone());
        }
    }
    base.extend(piece[old..].iter().map(|&l| l.clone()));
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
        let seed = Arc::new(UlsDatabase::from_licenses(vec![
            lic(1, "Alpha Networks", 41.0),
            lic(2, "Beta Microwave", 41.5),
        ]));
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
        let seed = Arc::new(UlsDatabase::from_licenses(vec![
            lic(1, "Alpha Networks", 41.0),
            lic(2, "Beta Microwave", 41.5),
            lic(3, "Gamma Wireless", 42.0),
        ]));
        let fleet = ShardedStore::seeded(&seed, 3, ShardStrategy::LicenseeHash, None);
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
            assert_eq!(store.shard(), k as u32);
        }
    }

    #[test]
    fn a_one_shard_store_serves_its_seed_corpus() {
        let seed = Arc::new(UlsDatabase::from_licenses(vec![
            lic(1, "Alpha Networks", 41.0),
            lic(2, "Beta Microwave", 41.5),
        ]));
        let fleet = ShardedStore::seeded(&seed, 1, ShardStrategy::LicenseeHash, None);
        let served = fleet.shard(0).current().db_arc();
        assert!(Arc::ptr_eq(&served, &seed), "seed was copied");
        assert!(*served == partition(&seed, 1)[0]);
    }

    /// Alpha's licenses `1..=n`, license 1 moved north by `edit` degrees.
    fn alpha(n: u64, edit: f64) -> UlsDatabase {
        let moved = |id: u64| if id == 1 { 41.0 + edit } else { 41.0 };
        UlsDatabase::from_licenses(
            (1..=n)
                .map(|id| lic(id, "Alpha Networks", moved(id)))
                .collect(),
        )
    }

    #[test]
    fn a_change_patches_the_corpus_the_last_change_retired_unless_it_is_read() {
        let fleet = ShardedStore::seeded(
            &Arc::new(alpha(1, 0.0)),
            1,
            ShardStrategy::LicenseeHash,
            None,
        );
        let served = || fleet.shard(0).current().db_arc();
        let seed = Arc::as_ptr(&served());
        // Nothing is retired yet: the first change copies the seed.
        fleet.publish_full(&alpha(2, 0.0), None);
        let first = Arc::as_ptr(&served());
        assert_ne!(first, seed);
        // The seed, retired and read by no one, takes the second change.
        fleet.publish_full(&alpha(3, 0.1), None);
        assert_eq!(
            Arc::as_ptr(&served()),
            seed,
            "the retired corpus was not reused"
        );
        assert!(*served() == alpha(3, 0.1));
        // An unchanged piece keeps the served corpus and its retired one.
        fleet.publish_full(&alpha(3, 0.1), None);
        assert_eq!(Arc::as_ptr(&served()), seed);

        // A reader holds the corpus the next change retires, so the
        // change after that copies instead of patching under it.
        let reader = fleet.shard(0).current();
        let read = UlsDatabase::clone(reader.db());
        fleet.publish_full(&alpha(4, 0.2), None);
        assert_eq!(Arc::as_ptr(&served()), first);
        fleet.publish_full(&alpha(5, 0.3), None);
        let copied = Arc::as_ptr(&served());
        assert!(
            copied != seed && copied != first,
            "a read corpus was patched"
        );
        assert!(*reader.db() == read, "the reader's corpus changed");
        assert!(*served() == alpha(5, 0.3));
        // Released, the corpus retired after the reader's is reused again.
        drop(reader);
        fleet.publish_full(&alpha(6, 0.4), None);
        assert_eq!(Arc::as_ptr(&served()), first);
        assert!(*served() == alpha(6, 0.4));
        assert_eq!(fleet.generation_vector(), vec![6]);
    }
}
