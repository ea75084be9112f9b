//! Copy-on-write corpus snapshot generations, one store per fleet shard.
//!
//! The live query service must never block readers while the corpus
//! changes underneath them — the lock-free-reader discipline of the HFT
//! pattern catalog. A [`SnapshotStore`] holds one fleet shard's
//! *current* [`CorpusSnapshot`] behind an `Arc` that is **swapped
//! atomically** at publish time: acquiring the current snapshot is an
//! `Arc` clone under a mutex held only for that pointer copy (never
//! during corpus builds or queries), so every in-flight query keeps the
//! `Arc` it started with and finishes against a fully consistent corpus
//! generation. A [`ShardedStore`](crate::sharded::ShardedStore) seeds
//! and publishes one store per shard (a one-shard fleet is one store),
//! and each store's registry series carry its `shard` label.
//!
//! Generations are strictly monotonic. [`SnapshotStore::generation`] is
//! a plain atomic load, cheap enough to read before and after every
//! query — which is exactly how `fleetload` brackets a response to the
//! generation that served it.

use hft_time::Date;
use hft_uls::UlsDatabase;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One published corpus generation.
#[derive(Debug, Clone)]
pub struct CorpusSnapshot {
    generation: u64,
    as_of: Option<Date>,
    db: Arc<UlsDatabase>,
}

impl CorpusSnapshot {
    /// The generation number (0 is the seed corpus).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The dump date this generation incorporates, when known (`None`
    /// for a seed corpus that predates any dump).
    pub fn as_of(&self) -> Option<Date> {
        self.as_of
    }

    /// The corpus.
    pub fn db(&self) -> &UlsDatabase {
        &self.db
    }

    /// The corpus as a shared handle — for consumers (like a per-
    /// generation `AnalysisSession`) that must co-own their generation.
    pub fn db_arc(&self) -> Arc<UlsDatabase> {
        Arc::clone(&self.db)
    }
}

/// One fleet shard's generation store: publishes corpus snapshots,
/// hands out the current one, and exposes the generation counter.
#[derive(Debug)]
pub struct SnapshotStore {
    current: Mutex<Arc<CorpusSnapshot>>,
    /// Mirrors `current`'s generation; a plain load, so hot paths can
    /// detect staleness without touching the mutex.
    generation: AtomicU64,
    /// When the current generation was published — feeds the snapshot
    /// staleness gauge exposed by the serve layer.
    published_at: Mutex<Instant>,
    /// The fleet shard this store publishes for. Only affects
    /// telemetry: the store reports into `shard`-labeled registry series
    /// so per-shard publish cadence is observable.
    shard: u32,
    /// Registry handles, resolved once at construction.
    generation_gauge: Arc<hft_obs::Gauge>,
    swap_ns: Arc<hft_obs::Histogram>,
}

impl SnapshotStore {
    /// Fleet shard `shard`'s store, seeded with generation 0 from a
    /// shared corpus, stamped `as_of` when the seed already incorporates
    /// dumps.
    pub fn seeded(db: Arc<UlsDatabase>, as_of: Option<Date>, shard: u32) -> SnapshotStore {
        let registry = hft_obs::global();
        let name = |base: &str| hft_obs::registry::labeled(base, "shard", &shard.to_string());
        SnapshotStore {
            current: Mutex::new(Arc::new(CorpusSnapshot {
                generation: 0,
                as_of,
                db,
            })),
            generation: AtomicU64::new(0),
            published_at: Mutex::new(Instant::now()),
            shard,
            generation_gauge: registry.gauge(&name("ingest.generation")),
            swap_ns: registry.histogram(&name("ingest.generation_swap_ns")),
        }
    }

    /// The fleet shard this store publishes for.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The current snapshot — an `Arc` clone; the caller co-owns the
    /// generation until it drops the handle.
    pub fn current(&self) -> Arc<CorpusSnapshot> {
        Arc::clone(&self.current.lock().expect("snapshot store"))
    }

    /// The current generation number (atomic fast path, no lock).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// How long ago the current generation was published. The serve
    /// layer reports this as its snapshot-staleness gauge.
    pub fn last_publish_age(&self) -> Duration {
        self.published_at.lock().expect("snapshot store").elapsed()
    }

    /// Publish `db` as the next generation and return its number.
    ///
    /// The store mutex is held only for the pointer swap. Readers
    /// holding older snapshots are unaffected; new [`SnapshotStore::current`]
    /// calls see the new generation immediately after the atomic counter
    /// is advanced.
    pub fn publish(&self, db: Arc<UlsDatabase>, as_of: Option<Date>) -> u64 {
        let started = Instant::now();
        let mut current = self.current.lock().expect("snapshot store");
        let generation = current.generation() + 1;
        *current = Arc::new(CorpusSnapshot {
            generation,
            as_of,
            db,
        });
        self.generation.store(generation, Ordering::Release);
        *self.published_at.lock().expect("snapshot store") = Instant::now();
        self.generation_gauge.set(generation as i64);
        self.swap_ns.record(started.elapsed().as_nanos() as u64);
        generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_are_monotonic_and_readers_keep_theirs() {
        let store = SnapshotStore::seeded(Arc::new(UlsDatabase::new()), None, 0);
        assert_eq!(store.generation(), 0);
        let held = store.current();
        assert_eq!(held.generation(), 0);
        assert!(held.as_of().is_none());

        let d = Date::new(2015, 6, 17).unwrap();
        let g1 = store.publish(Arc::new(UlsDatabase::new()), Some(d));
        assert_eq!(g1, 1);
        assert_eq!(store.generation(), 1);
        assert_eq!(store.current().generation(), 1);
        assert_eq!(store.current().as_of(), Some(d));
        // The earlier reader still holds generation 0, untouched.
        assert_eq!(held.generation(), 0);

        assert_eq!(store.publish(Arc::new(UlsDatabase::new()), Some(d)), 2);
    }

    #[test]
    fn copy_on_write_only_copies_under_readers() {
        // Applier-style usage: mutate a working Arc with make_mut.
        let mut working = Arc::new(UlsDatabase::new());
        let store = SnapshotStore::seeded(Arc::clone(&working), None, 0);
        // The store holds a reference → make_mut must copy.
        let p_before = Arc::as_ptr(&working);
        Arc::make_mut(&mut working);
        assert_ne!(Arc::as_ptr(&working), p_before);
        // Publish the working corpus, then drop the store's old snapshot
        // by publishing again from a fresh handle; with no other holders,
        // make_mut mutates in place.
        store.publish(Arc::clone(&working), None);
        let solo_ptr = Arc::as_ptr(&working);
        store.publish(Arc::new(UlsDatabase::new()), None);
        Arc::make_mut(&mut working);
        assert_eq!(Arc::as_ptr(&working), solo_ptr, "no readers → no copy");
    }
}
