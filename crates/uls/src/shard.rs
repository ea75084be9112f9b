//! Deterministic corpus partitioning for the sharded serving fleet.
//!
//! A fleet splits one [`UlsDatabase`] into N disjoint shard corpora so
//! each shard worker answers over its own piece. Both strategies
//! partition at **licensee granularity** — every license filed under a
//! name lands on that name's shard — because the query surface is
//! licensee-shaped on both ends:
//!
//! * single-licensee requests (network, route, APA, weather) are
//!   answerable by exactly one shard, and
//! * the §2.2 funnel counts *licensees*, so per-shard funnel counters
//!   sum to the single-corpus counters without double counting.
//!
//! Assignment must be a pure function of the corpus (no `RandomState`,
//! no iteration-order dependence): the router, the load generator and
//! the ingest publisher all recompute it independently and must agree,
//! across processes and across runs.

use crate::license::License;
use crate::portal::UlsDatabase;
use crate::siteindex::cell_of;
use std::collections::HashMap;

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

/// How licensees are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Hash of the filed licensee name, modulo the shard count. Routing
    /// a single-licensee request is a pure function of the name — one
    /// hop, no corpus lookup — so this is the default.
    LicenseeHash,
    /// Hash of the licensee's *anchor cell*: the minimum [`cell_of`]
    /// grid cell over every tower site the licensee files. Licensees
    /// operating in the same corner of the map co-locate, which keeps
    /// geographic scatter answers concentrated on few shards; the cost
    /// is that the owner of a name must be looked up in the shard
    /// corpora instead of computed from it. Licensees with no sites fall
    /// back to the name hash.
    SpatialCell,
}

impl ShardStrategy {
    /// Parse a CLI/wire strategy name.
    pub fn parse(s: &str) -> Option<ShardStrategy> {
        match s {
            "licensee" => Some(ShardStrategy::LicenseeHash),
            "spatial" => Some(ShardStrategy::SpatialCell),
            _ => None,
        }
    }

    /// The CLI/wire name.
    pub fn name(&self) -> &'static str {
        match self {
            ShardStrategy::LicenseeHash => "licensee",
            ShardStrategy::SpatialCell => "spatial",
        }
    }

    /// Whether the owning shard of a licensee is computable from the
    /// name alone, or must be looked up in the shard corpora.
    pub fn routes_by_name(&self) -> bool {
        matches!(self, ShardStrategy::LicenseeHash)
    }
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

/// The owning shard of `licensee` under [`ShardStrategy::LicenseeHash`].
///
/// # Panics
/// Panics when `shards` is zero.
pub fn shard_of_licensee(licensee: &str, shards: usize) -> u32 {
    assert!(shards > 0, "shard count must be at least 1");
    (mix64(fnv1a(licensee.as_bytes())) % shards as u64) as u32
}

/// The owning shard of an anchor grid cell under
/// [`ShardStrategy::SpatialCell`].
fn shard_of_cell(cell: (i32, i32), shards: usize) -> u32 {
    let mut bytes = [0u8; 8];
    bytes[..4].copy_from_slice(&cell.0.to_le_bytes());
    bytes[4..].copy_from_slice(&cell.1.to_le_bytes());
    (mix64(fnv1a(&bytes)) % shards as u64) as u32
}

/// A corpus split into per-shard corpora plus the licensee→shard map
/// that produced it.
#[derive(Debug)]
pub struct Partition {
    /// One corpus per shard. Within each shard, licenses keep their
    /// relative corpus insertion order.
    pub shards: Vec<UlsDatabase>,
    /// Every licensee name in the source corpus → its owning shard.
    pub assignment: HashMap<String, u32>,
}

/// Split `db` into `shards` disjoint corpora under `strategy`.
///
/// Deterministic: the same corpus, shard count and strategy always
/// produce the same partition, and the union of the shard corpora is
/// exactly the source corpus (each license appears on exactly one
/// shard — its licensee's).
///
/// # Panics
/// Panics when `shards` is zero.
pub fn partition(db: &UlsDatabase, shards: usize, strategy: ShardStrategy) -> Partition {
    Partition {
        shards: pieces(db, shards, strategy)
            .into_iter()
            .map(|piece| UlsDatabase::from_licenses(piece.into_iter().cloned().collect()))
            .collect(),
        assignment: assign(db, shards, strategy),
    }
}

/// `db`'s licenses cut into the `shards` pieces of [`partition`], each
/// in corpus order, borrowed: what a publisher diffs against the shard
/// corpora it already holds without copying the new corpus.
///
/// # Panics
/// Panics when `shards` is zero.
pub fn pieces(db: &UlsDatabase, shards: usize, strategy: ShardStrategy) -> Vec<Vec<&License>> {
    let assignment = assign(db, shards, strategy);
    let mut pieces = vec![Vec::new(); shards];
    for lic in db.licenses() {
        pieces[assignment[&lic.licensee] as usize].push(lic);
    }
    pieces
}

/// The licensee→shard map for `db` under `strategy`, without building
/// the shard corpora.
pub fn assign(db: &UlsDatabase, shards: usize, strategy: ShardStrategy) -> HashMap<String, u32> {
    assert!(shards > 0, "shard count must be at least 1");
    match strategy {
        ShardStrategy::LicenseeHash => db
            .licensees()
            .into_iter()
            .map(|name| (name.to_string(), shard_of_licensee(name, shards)))
            .collect(),
        ShardStrategy::SpatialCell => {
            // Anchor = minimum grid cell across every site the licensee
            // files, scanned in corpus order. The min is order-free, so
            // the anchor is a pure function of the license set.
            let mut anchors: HashMap<&str, Option<(i32, i32)>> = HashMap::new();
            for lic in db.licenses() {
                let anchor = anchors.entry(lic.licensee.as_str()).or_insert(None);
                for site in lic.sites() {
                    let cell = cell_of(&site.position);
                    if anchor.is_none_or(|a| cell < a) {
                        *anchor = Some(cell);
                    }
                }
            }
            anchors
                .into_iter()
                .map(|(name, anchor)| {
                    let shard = match anchor {
                        Some(cell) => shard_of_cell(cell, shards),
                        None => shard_of_licensee(name, shards),
                    };
                    (name.to_string(), shard)
                })
                .collect()
        }
    }
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
    fn strategy_names_round_trip() {
        for s in [ShardStrategy::LicenseeHash, ShardStrategy::SpatialCell] {
            assert_eq!(ShardStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(ShardStrategy::parse("bogus"), None);
        assert!(ShardStrategy::LicenseeHash.routes_by_name());
        assert!(!ShardStrategy::SpatialCell.routes_by_name());
    }

    #[test]
    fn every_license_lands_on_exactly_one_shard() {
        let db = corpus();
        for strategy in [ShardStrategy::LicenseeHash, ShardStrategy::SpatialCell] {
            for n in 1..=6 {
                let part = partition(&db, n, strategy);
                assert_eq!(part.shards.len(), n);
                let total: usize = part.shards.iter().map(|s| s.len()).sum();
                assert_eq!(total, db.len(), "{strategy:?} n={n}");
                // Disjoint: each id appears in exactly one shard corpus.
                for l in db.licenses() {
                    let holders = part
                        .shards
                        .iter()
                        .filter(|s| s.license_detail(l.id).is_some())
                        .count();
                    assert_eq!(holders, 1, "{strategy:?} n={n} id={}", l.id);
                }
            }
        }
    }

    #[test]
    fn licensees_are_never_split_across_shards() {
        let db = corpus();
        for strategy in [ShardStrategy::LicenseeHash, ShardStrategy::SpatialCell] {
            let part = partition(&db, 4, strategy);
            for shard in &part.shards {
                for l in shard.licenses() {
                    assert_eq!(part.assignment[&l.licensee] as usize, shard_index(&part, l));
                }
            }
            for (k, piece) in pieces(&db, 4, strategy).iter().enumerate() {
                assert!(piece
                    .iter()
                    .all(|l| part.assignment[&l.licensee] as usize == k));
            }
            // All of a licensee's filings are on their one shard.
            for name in db.licensees() {
                let shard = &part.shards[part.assignment[name] as usize];
                assert_eq!(
                    shard.licensee_search(name).len(),
                    db.licensee_search(name).len(),
                    "{strategy:?} {name}"
                );
            }
        }
    }

    fn shard_index(part: &Partition, l: &License) -> usize {
        part.shards
            .iter()
            .position(|s| s.license_detail(l.id).is_some())
            .unwrap()
    }

    #[test]
    fn single_shard_partition_is_the_identity() {
        let db = corpus();
        for strategy in [ShardStrategy::LicenseeHash, ShardStrategy::SpatialCell] {
            let part = partition(&db, 1, strategy);
            assert_eq!(part.shards[0], db, "{strategy:?}");
        }
    }

    #[test]
    fn assignment_is_deterministic() {
        let db = corpus();
        for strategy in [ShardStrategy::LicenseeHash, ShardStrategy::SpatialCell] {
            let a = assign(&db, 8, strategy);
            let b = assign(&db, 8, strategy);
            assert_eq!(a, b);
        }
        // Name routing matches the partition's assignment.
        let part = partition(&db, 8, ShardStrategy::LicenseeHash);
        for name in db.licensees() {
            assert_eq!(part.assignment[name], shard_of_licensee(name, 8));
        }
    }

    #[test]
    fn spatial_cells_co_locate_nearby_licensees() {
        // Two licensees whose towers share a 0.25° cell must land on the
        // same shard under the spatial strategy, for any shard count.
        let db = UlsDatabase::from_licenses(vec![
            lic(1, "East Tower Co", 41.01, -88.01),
            lic(2, "West Tower Co", 41.02, -88.02),
        ]);
        for n in 1..=7 {
            let a = assign(&db, n, ShardStrategy::SpatialCell);
            assert_eq!(a["East Tower Co"], a["West Tower Co"], "n={n}");
        }
    }
}
