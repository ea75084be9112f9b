//! Deterministic corpus partitioning for the sharded serving fleet.
//!
//! A fleet splits one [`UlsDatabase`] into N disjoint shard corpora so
//! each shard worker answers over its own piece. Partitioning is at
//! **licensee granularity** — every license filed under a name lands on
//! [`shard_of_licensee`] of that name — because the query surface is
//! licensee-shaped on both ends:
//!
//! * single-licensee requests (network, route, APA, weather) are
//!   answerable by exactly one shard, found from the name alone, and
//! * the §2.2 funnel counts *licensees*, so per-shard funnel counters
//!   sum to the single-corpus counters without double counting.
//!
//! The owner must be a pure function of the name (no `RandomState`, no
//! corpus lookup): the router, the load generator and the ingest
//! publisher all recompute it independently and must agree, across
//! processes and across runs.

use crate::license::License;
use crate::portal::UlsDatabase;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes` — the fleet's stable hash. Unlike
/// `std::collections` hashing it is fixed across builds, processes and
/// platforms, which is what lets a client attribute a request to a
/// shard without asking the router.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// How licensees are assigned to shards: always by
/// [`shard_of_licensee`]. Kept, with its one variant, only because the
/// `hftbench` benchmark's fixture still names it when it seeds a fleet
/// (`ShardedStore::seeded` ignores it); it goes with the next change to
/// the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Hash of the filed licensee name, modulo the shard count.
    LicenseeHash,
}

/// Murmur3's 64-bit finalizer (`fmix64`): a bijective avalanche mix
/// applied on top of [`fnv1a`] before the modulo reduction. FNV-1a is a
/// fine identity hash but avalanches poorly — similar short ASCII keys
/// cluster modulo small shard counts, which showed up as dead shards in
/// the fleet bench. Every output bit of the finalizer depends on every
/// input bit, so the low-bit reduction sees the whole key; bijective
/// means no entropy is lost on top of FNV-1a itself.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// The owning shard of `licensee` in a fleet of `shards`.
///
/// # Panics
/// Panics when `shards` is zero.
pub fn shard_of_licensee(licensee: &str, shards: usize) -> u32 {
    assert!(shards > 0, "shard count must be at least 1");
    (mix64(fnv1a(licensee.as_bytes())) % shards as u64) as u32
}

/// Split `db` into `shards` disjoint corpora, one per shard. Within
/// each shard, licenses keep their relative corpus order.
///
/// Deterministic: the same corpus and shard count always produce the
/// same partition, and the union of the shard corpora is exactly the
/// source corpus (each license appears on exactly one shard — its
/// licensee's).
///
/// # Panics
/// Panics when `shards` is zero.
pub fn partition(db: &UlsDatabase, shards: usize) -> Vec<UlsDatabase> {
    pieces(db, shards)
        .into_iter()
        .map(|piece| UlsDatabase::from_licenses(piece.into_iter().cloned().collect()))
        .collect()
}

/// `db`'s licenses cut into the `shards` pieces of [`partition`], each
/// in corpus order, borrowed: what a publisher diffs against the shard
/// corpora it already holds without copying the new corpus.
///
/// # Panics
/// Panics when `shards` is zero.
pub fn pieces(db: &UlsDatabase, shards: usize) -> Vec<Vec<&License>> {
    assert!(shards > 0, "shard count must be at least 1");
    let mut pieces = vec![Vec::new(); shards];
    for lic in db.licenses() {
        pieces[shard_of_licensee(&lic.licensee, shards) as usize].push(lic);
    }
    pieces
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::license::{
        CallSign, FrequencyAssignment, LicenseId, MicrowavePath, RadioService, StationClass,
        TowerSite,
    };
    use crate::portal::UlsPortal;
    use hft_geodesy::LatLon;
    use hft_time::Date;

    fn lic(id: u64, name: &str, lat: f64, lon: f64) -> License {
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
                tx: TowerSite::at(LatLon::new(lat, lon).unwrap()),
                rx: TowerSite::at(LatLon::new(lat + 0.2, lon + 0.3).unwrap()),
                frequencies: vec![FrequencyAssignment { center_hz: 6.1e9 }],
            }],
        }
    }

    fn corpus() -> UlsDatabase {
        UlsDatabase::from_licenses(vec![
            lic(1, "Alpha Networks", 41.0, -88.0),
            lic(2, "Beta Microwave", 41.5, -87.5),
            lic(3, "Alpha Networks", 42.0, -86.0),
            lic(4, "Gamma Wireless", 40.0, -80.0),
            lic(5, "Beta Microwave", 39.5, -84.5),
        ])
    }

    #[test]
    fn fnv1a_is_the_reference_function() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn licensee_hash_avalanches_across_small_fleets() {
        // Regression guard for the finalizer: short keys differing only
        // in trailing characters (the shape of real licensee rosters)
        // must not stripe any shard empty. Raw FNV-1a mod 8 left two of
        // eight shards without a single licensee on the corridor corpus.
        let names: Vec<String> = (0..64).map(|i| format!("Licensee {i:02}")).collect();
        for n in 2..=8 {
            let mut hit = vec![false; n];
            for name in &names {
                hit[shard_of_licensee(name, n) as usize] = true;
            }
            assert!(hit.iter().all(|&h| h), "empty shard at n={n}: {hit:?}");
        }
    }

    #[test]
    fn mix64_is_bijective_on_samples() {
        // The finalizer must not lose entropy on top of FNV-1a: spot
        // check injectivity and non-identity on a spread of inputs.
        let inputs: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let mut outputs: Vec<u64> = inputs.iter().map(|&h| mix64(h)).collect();
        outputs.sort_unstable();
        outputs.dedup();
        assert_eq!(outputs.len(), inputs.len());
        assert_ne!(mix64(1), 1);
    }

    #[test]
    fn every_license_lands_on_exactly_one_shard() {
        let db = corpus();
        for n in 1..=6 {
            let shards = partition(&db, n);
            assert_eq!(shards.len(), n);
            let total: usize = shards.iter().map(|s| s.len()).sum();
            assert_eq!(total, db.len(), "n={n}");
            // Disjoint: each id appears in exactly one shard corpus.
            for l in db.licenses() {
                let holders = shards
                    .iter()
                    .filter(|s| s.license_detail(l.id).is_some())
                    .count();
                assert_eq!(holders, 1, "n={n} id={}", l.id);
            }
        }
    }

    #[test]
    fn licensees_are_never_split_across_shards() {
        let db = corpus();
        let shards = partition(&db, 4);
        for (k, shard) in shards.iter().enumerate() {
            for l in shard.licenses() {
                assert_eq!(shard_of_licensee(&l.licensee, 4) as usize, k);
            }
        }
        for (k, piece) in pieces(&db, 4).iter().enumerate() {
            assert!(piece
                .iter()
                .all(|l| shard_of_licensee(&l.licensee, 4) as usize == k));
        }
        // All of a licensee's filings are on their one shard.
        for name in db.licensees() {
            let shard = &shards[shard_of_licensee(name, 4) as usize];
            assert_eq!(
                shard.licensee_search(name).len(),
                db.licensee_search(name).len(),
                "{name}"
            );
        }
    }

    #[test]
    fn single_shard_partition_is_the_identity() {
        let db = corpus();
        assert_eq!(partition(&db, 1), vec![db]);
    }

    #[test]
    fn assignment_is_deterministic() {
        let db = corpus();
        let shards = partition(&db, 8);
        assert_eq!(shards, partition(&db, 8));
        // Name routing finds each licensee's filings.
        for name in db.licensees() {
            let k = shard_of_licensee(name, 8) as usize;
            assert!(!shards[k].licensee_search(name).is_empty(), "{name}");
        }
    }
}
