//! The simulated ULS portal: the four search interfaces of §2.1.
//!
//! Every secondary index of a [`UlsDatabase`] is a list of `u32` corpus
//! positions, never a per-license allocation: ids and call signs are one
//! `Vec<u32>` each, sorted by key and searched by bisection, the
//! `(service, class)` map holds one position list per key, and the
//! licensee map, in name order, holds each licensee's [`Filings`]: its
//! position list and its distinct lifecycle dates, the epochs every
//! analysis engine memoizes on. A bulk build
//! ([`UlsDatabase::from_licenses`]) sizes every position list, the
//! license vector and each site cell exactly, in a few hundred
//! allocations whatever the corpus size. On the seed-2020 corpus (2,801
//! licenses) the indexes went from 377 to 122 bytes per license (9,560
//! allocations to 459) when the hash maps keyed by id and call sign
//! became these lists, and the whole corpus from 1.72 MiB of live heap
//! to 1.04 MiB.

use crate::license::{License, LicenseId, RadioService, StationClass};
use crate::siteindex::SiteIndex;
use hft_geodesy::{LatLon, RadiusTest};
use hft_time::Date;
use std::collections::{BTreeMap, HashMap};

/// The search interfaces the FCC Universal Licensing System exposes and
/// the paper's scraper drives (§2.1): geographic, site-based, by licensee
/// name, and by license id.
///
/// Implemented by [`UlsDatabase`]; defined as a trait to document the
/// substitution boundary — the paper's tool talks to these interfaces
/// over HTTP, ours talks to an in-memory corpus.
pub trait UlsPortal {
    /// Licenses with any site within `radius_km` of `center`
    /// (the "Geographic Search").
    fn geographic_search(&self, center: &LatLon, radius_km: f64) -> Vec<&License>;

    /// Licenses matching a radio service code and station class
    /// (the "Site License Search").
    fn site_search(&self, service: &RadioService, class: &StationClass) -> Vec<&License>;

    /// Licenses filed by `licensee` (exact name match, the "Basic Search").
    fn licensee_search(&self, licensee: &str) -> Vec<&License>;

    /// Full detail for one license (the "License Search" detail page).
    fn license_detail(&self, id: LicenseId) -> Option<&License>;
}

/// In-memory license corpus with the [`UlsPortal`] interfaces plus a few
/// bulk accessors used by reconstruction.
///
/// Searches are index-backed: geographic queries walk a [`SiteIndex`]
/// bucket grid instead of the whole corpus, site searches hit a
/// `(service, class)` index, and licensee searches read the licensee
/// map, which every edit keeps up to date. The un-indexed scans survive as
/// [`UlsDatabase::geographic_search_linear`] and
/// [`UlsDatabase::site_search_linear`] — the reference implementations
/// the property tests and benches compare against.
///
/// `PartialEq` compares the license list *and every secondary index*
/// structurally: an incrementally-mutated database (see
/// [`UlsDatabase::extend`], [`UlsDatabase::replace`]) equals
/// [`UlsDatabase::from_licenses`] of the same license sequence only when
/// all index maintenance was exact — which is precisely the check the
/// ingest applier's verification rebuild performs. Every index has one
/// canonical order (by key, then corpus position), so equal license
/// sequences give equal indexes however they were built.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UlsDatabase {
    licenses: Vec<License>,
    /// Corpus positions ordered by license id (ids are unique).
    by_id: Vec<u32>,
    /// `licensee → filings`, in name order.
    by_licensee: BTreeMap<String, Filings>,
    /// `(service, class) → positions`, ascending.
    by_service_class: HashMap<ServiceClass, Vec<u32>>,
    /// Corpus positions ordered by `(call sign, position)`. Call signs
    /// are unique in a real ULS corpus, but the index tolerates
    /// duplicates (the delta codec keys transactions by call sign and
    /// must resolve the latest filing deterministically — see
    /// [`UlsDatabase::find_call_sign`]).
    by_call_sign: Vec<u32>,
    /// Bucket grid over every tx/rx tower site.
    sites: SiteIndex,
}

/// The key of the site-search index.
type ServiceClass = (RadioService, StationClass);

/// One licensee's entry in the licensee map of a [`UlsDatabase`]: where
/// its licenses sit in the corpus, and the lifecycle dates that cut its
/// timeline into epochs.
///
/// Whether a license is active on a date depends only on which of its
/// grant, cancellation and termination dates fall at or before that
/// date ([`License::status_on`]). So between two consecutive lifecycle
/// dates of a licensee none of its licenses changes status, and neither
/// can its reconstructed network. The number of its distinct lifecycle
/// dates at or before a date is that date's **epoch**.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Filings {
    /// Corpus positions of the licensee's licenses, ascending.
    positions: Vec<u32>,
    /// Its licenses' distinct lifecycle dates, ascending, each with the
    /// number of their date fields holding it, so an edit adjusts a
    /// count instead of regathering the dates.
    dates: Vec<(Date, u32)>,
}

/// What [`UlsDatabase::filings`] answers for a name with no licenses.
static NO_FILINGS: Filings = Filings {
    positions: Vec::new(),
    dates: Vec::new(),
};

impl Filings {
    /// Corpus positions of the licensee's licenses, ascending.
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// The epoch of `date`: how many of the licensee's distinct
    /// lifecycle dates fall at or before it. Dates with equal epochs see
    /// the same licenses active.
    pub fn epoch(&self, date: Date) -> usize {
        self.dates.partition_point(|&(d, _)| d <= date)
    }

    /// How many epochs the licensee has: its distinct lifecycle dates
    /// plus one.
    pub fn epoch_count(&self) -> usize {
        self.dates.len() + 1
    }

    /// The first date of epoch `epoch`: the lifecycle date opening it,
    /// or [`Date::MIN`] for epoch 0.
    ///
    /// # Panics
    /// Panics when `epoch` is not below [`Filings::epoch_count`].
    pub fn epoch_start(&self, epoch: usize) -> Date {
        epoch.checked_sub(1).map_or(Date::MIN, |k| self.dates[k].0)
    }

    /// Count `license`'s lifecycle dates in (`add`) or out.
    fn count(&mut self, license: &License, add: bool) {
        for date in lifecycle_dates(license) {
            let at = self.dates.partition_point(|&(d, _)| d < date);
            let held = self.dates.get(at).is_some_and(|&(d, _)| d == date);
            match (held, add) {
                (true, true) => self.dates[at].1 += 1,
                (true, false) if self.dates[at].1 > 1 => self.dates[at].1 -= 1,
                (true, false) => {
                    self.dates.remove(at);
                }
                (false, true) => self.dates.insert(at, (date, 1)),
                (false, false) => panic!("lifecycle date index out of step"),
            }
        }
    }
}

/// A license's grant date, then its cancellation and termination dates
/// when set.
fn lifecycle_dates(license: &License) -> impl Iterator<Item = Date> {
    let later = [license.cancellation_date, license.termination_date];
    std::iter::once(license.grant_date).chain(later.into_iter().flatten())
}

/// The distinct values of `dates`, ascending, each with how often it
/// occurs, in a vector of exactly that length. Sorts `dates`.
fn date_counts(dates: &mut [Date]) -> Vec<(Date, u32)> {
    dates.sort_unstable();
    let mut counts = Vec::with_capacity(dates.chunk_by(Date::eq).count());
    counts.extend(dates.chunk_by(Date::eq).map(|run| {
        let n = u32::try_from(run.len()).expect("date counts must fit in u32");
        (run[0], n)
    }));
    counts
}

/// File `license`, at corpus position `pos`, under its licensee.
fn add_filing(map: &mut BTreeMap<String, Filings>, license: &License, pos: u32) {
    if !map.contains_key(&license.licensee) {
        map.insert(license.licensee.clone(), Filings::default());
    }
    let filings = map.get_mut(&license.licensee).expect("inserted above");
    let at = filings.positions.partition_point(|&p| p < pos);
    filings.positions.insert(at, pos);
    filings.count(license, true);
}

/// Undo [`add_filing`], dropping the licensee once it files nothing.
fn remove_filing(map: &mut BTreeMap<String, Filings>, license: &License, pos: u32) {
    let filings = map
        .get_mut(&license.licensee)
        .expect("licensee index out of step");
    filings.positions.retain(|&p| p != pos);
    filings.count(license, false);
    if filings.positions.is_empty() {
        map.remove(&license.licensee);
    }
}

impl UlsDatabase {
    /// An empty database.
    pub fn new() -> UlsDatabase {
        UlsDatabase::default()
    }

    /// Build from a license list. The database takes the vector itself,
    /// cloning no record, and trims it to its length.
    ///
    /// Each ordered index is sorted once, and every index list and each
    /// site cell is allocated once, at exactly its length.
    ///
    /// # Panics
    /// Panics on duplicate license ids — a corpus invariant violation —
    /// or when the corpus has more positions than `u32` holds.
    pub fn from_licenses(mut licenses: Vec<License>) -> UlsDatabase {
        let n = u32::try_from(licenses.len()).expect("corpus positions must fit in u32");
        licenses.shrink_to_fit();
        let at = |p: &u32| &licenses[*p as usize];
        let mut by_id: Vec<u32> = (0..n).collect();
        by_id.sort_unstable_by_key(|p| at(p).id);
        if let Some(w) = by_id.windows(2).find(|w| at(&w[0]).id == at(&w[1]).id) {
            panic!("duplicate license id {}", at(&w[0]).id);
        }
        let mut by_call_sign: Vec<u32> = (0..n).collect();
        by_call_sign.sort_unstable_by(|a, b| (&at(a).call_sign, a).cmp(&(&at(b).call_sign, b)));
        let positions = || licenses.iter().zip(0..n);
        // One scratch list gathers each licensee's dates in turn.
        let mut scratch: Vec<Date> = Vec::new();
        let by_licensee: BTreeMap<String, Filings> =
            group_exact(positions, |&(l, _)| l.licensee.as_str(), |(_, p)| p)
                .into_iter()
                .map(|(name, positions)| {
                    scratch.clear();
                    scratch.extend(positions.iter().flat_map(|p| lifecycle_dates(at(p))));
                    let dates = date_counts(&mut scratch);
                    (name.to_owned(), Filings { positions, dates })
                })
                .collect();
        let by_service_class = group_exact(
            positions,
            |&(l, _)| (&l.service, &l.station_class),
            |(_, p)| p,
        )
        .into_iter()
        .map(|((service, class), ps)| ((service.clone(), class.clone()), ps))
        .collect();
        let sites = SiteIndex::build(|| {
            licenses
                .iter()
                .enumerate()
                .flat_map(|(p, l)| l.sites().map(move |s| (p, s.position)))
        });
        UlsDatabase {
            licenses,
            by_id,
            by_licensee,
            by_service_class,
            by_call_sign,
            sites,
        }
    }

    /// Insert one license.
    ///
    /// # Panics
    /// Panics when the id is already present.
    pub fn insert(&mut self, license: License) {
        let pos = u32::try_from(self.licenses.len()).expect("corpus positions must fit in u32");
        let id_slot = self.id_slot(license.id);
        assert!(
            !self.holds_id_at(id_slot, license.id),
            "duplicate license id {}",
            license.id
        );
        add_filing(&mut self.by_licensee, &license, pos);
        Self::index_add(
            &mut self.by_service_class,
            (license.service.clone(), license.station_class.clone()),
            pos,
        );
        for site in license.sites() {
            self.sites.insert(pos as usize, &site.position);
        }
        self.licenses.push(license);
        self.by_id.insert(id_slot, pos);
        let call_slot = self.call_slot(&self.licenses[pos as usize].call_sign.0, pos);
        self.by_call_sign.insert(call_slot, pos);
    }

    /// Append every license in order: on an empty database this is
    /// [`UlsDatabase::from_licenses`], otherwise one
    /// [`UlsDatabase::insert`] per license.
    ///
    /// # Panics
    /// Panics on duplicate license ids, like [`UlsDatabase::insert`].
    pub fn extend(&mut self, licenses: impl IntoIterator<Item = License>) {
        if self.is_empty() {
            *self = UlsDatabase::from_licenses(licenses.into_iter().collect());
        } else {
            licenses.into_iter().for_each(|l| self.insert(l));
        }
    }

    /// Replace the license at corpus position `idx` in place, repairing
    /// every secondary index incrementally — no rebuild.
    ///
    /// An ordered-list entry moves only when its key (id or call sign)
    /// changed, and site cells are touched only when the site list did.
    /// Every list keeps its canonical order, so the result is `==` to
    /// [`UlsDatabase::from_licenses`] over the updated license sequence.
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds, or when the replacement's id
    /// collides with a *different* license (changing the id of slot `idx`
    /// itself is allowed).
    pub fn replace(&mut self, idx: usize, license: License) {
        assert!(idx < self.licenses.len(), "replace index out of bounds");
        let pos = idx as u32;
        let old = &self.licenses[idx];
        let id_changed = old.id != license.id;
        let call_changed = old.call_sign != license.call_sign;
        if id_changed {
            assert!(
                self.license_detail(license.id).is_none(),
                "duplicate license id {}",
                license.id
            );
            let slot = self.id_slot(old.id);
            assert_eq!(self.by_id.remove(slot), pos, "id index out of step");
        }
        if call_changed {
            let slot = self.call_slot(&old.call_sign.0, pos);
            let removed = self.by_call_sign.remove(slot);
            assert_eq!(removed, pos, "call-sign index out of step");
        }
        let old = std::mem::replace(&mut self.licenses[idx], license);
        let new = &self.licenses[idx];
        if id_changed {
            let slot = self.id_slot(new.id);
            self.by_id.insert(slot, pos);
        }
        if call_changed {
            let slot = self.call_slot(&new.call_sign.0, pos);
            self.by_call_sign.insert(slot, pos);
        }
        remove_filing(&mut self.by_licensee, &old, pos);
        add_filing(&mut self.by_licensee, new, pos);
        if !old
            .sites()
            .map(|s| s.position)
            .eq(new.sites().map(|s| s.position))
        {
            let old_positions: Vec<LatLon> = old.sites().map(|s| s.position).collect();
            self.sites.remove_license(idx, &old_positions);
            for site in new.sites() {
                self.sites.insert(idx, &site.position);
            }
        }
        if (&old.service, &old.station_class) != (&new.service, &new.station_class) {
            let new_key = (new.service.clone(), new.station_class.clone());
            Self::index_remove(
                &mut self.by_service_class,
                &(old.service, old.station_class),
                pos,
            );
            Self::index_add(&mut self.by_service_class, new_key, pos);
        }
    }

    /// Set (or clear) the cancellation date of the license at `idx`,
    /// recounting its licensee's lifecycle dates — the cheap path for
    /// the delta codec's cancel transactions.
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds.
    pub fn set_cancellation(&mut self, idx: usize, date: Option<Date>) {
        let license = &mut self.licenses[idx];
        let filings = self
            .by_licensee
            .get_mut(&license.licensee)
            .expect("licensee index out of step");
        filings.count(license, false);
        license.cancellation_date = date;
        filings.count(license, true);
    }

    /// Corpus position of the latest filing under `call_sign`, if any.
    ///
    /// "Latest" is by corpus position — the most recently inserted
    /// license with that call sign wins, which is the resolution rule the
    /// delta codec documents for its call-sign-keyed transactions.
    pub fn find_call_sign(&self, call_sign: &str) -> Option<usize> {
        let end = self.call_slot(call_sign, u32::MAX);
        let &pos = self.by_call_sign[..end].last()?;
        (self.licenses[pos as usize].call_sign.0 == call_sign).then_some(pos as usize)
    }

    /// Slot of `id` in `by_id`: the first entry whose id is not below it.
    fn id_slot(&self, id: LicenseId) -> usize {
        self.by_id
            .partition_point(|&p| self.licenses[p as usize].id < id)
    }

    /// Whether the `by_id` entry at `slot` is the license with `id`.
    fn holds_id_at(&self, slot: usize, id: LicenseId) -> bool {
        self.by_id
            .get(slot)
            .is_some_and(|&p| self.licenses[p as usize].id == id)
    }

    /// Slot of `(call_sign, pos)` in `by_call_sign`: the first entry not
    /// ordered below it.
    fn call_slot(&self, call_sign: &str, pos: u32) -> usize {
        self.by_call_sign.partition_point(|&p| {
            (self.licenses[p as usize].call_sign.0.as_str(), p) < (call_sign, pos)
        })
    }

    /// Remove `pos` from the position list at `key`, dropping the entry
    /// when the list empties.
    fn index_remove(map: &mut HashMap<ServiceClass, Vec<u32>>, key: &ServiceClass, pos: u32) {
        if let Some(v) = map.get_mut(key) {
            v.retain(|&p| p != pos);
            if v.is_empty() {
                map.remove(key);
            }
        }
    }

    /// Insert `pos` into the position list at `key` at its ascending slot.
    fn index_add(map: &mut HashMap<ServiceClass, Vec<u32>>, key: ServiceClass, pos: u32) {
        let v = map.entry(key).or_default();
        let at = v.partition_point(|&p| p < pos);
        v.insert(at, pos);
    }

    /// Number of licenses.
    pub fn len(&self) -> usize {
        self.licenses.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.licenses.is_empty()
    }

    /// All licenses in insertion order.
    pub fn licenses(&self) -> &[License] {
        &self.licenses
    }

    /// All distinct licensee names, sorted: the licensee map's keys.
    pub fn licensees(&self) -> Vec<&str> {
        self.by_licensee.keys().map(String::as_str).collect()
    }

    /// The filings of `licensee`: its corpus positions and lifecycle
    /// epochs (empty for a name with no licenses).
    pub fn filings(&self, licensee: &str) -> &Filings {
        self.by_licensee.get(licensee).unwrap_or(&NO_FILINGS)
    }

    /// The tower-site bucket grid backing [`UlsPortal::geographic_search`].
    pub fn site_index(&self) -> &SiteIndex {
        &self.sites
    }

    /// Reference implementation of [`UlsPortal::geographic_search`]:
    /// the original full linear scan with one exact geodesic solve per
    /// tower site. Kept for the property tests (indexed and linear
    /// results must agree exactly) and as the bench baseline.
    pub fn geographic_search_linear(&self, center: &LatLon, radius_km: f64) -> Vec<&License> {
        let radius_m = radius_km * 1000.0;
        self.licenses
            .iter()
            .filter(|l| {
                l.sites()
                    .any(|s| s.position.geodesic_distance_m(center) <= radius_m)
            })
            .collect()
    }

    /// Reference implementation of [`UlsPortal::site_search`]: the
    /// original full scan over the corpus. Kept for the property tests
    /// and as the bench baseline.
    pub fn site_search_linear(
        &self,
        service: &RadioService,
        class: &StationClass,
    ) -> Vec<&License> {
        self.licenses
            .iter()
            .filter(|l| &l.service == service && &l.station_class == class)
            .collect()
    }
}

/// Cached handles for the portal's `uls.*` metrics, resolved once per
/// process so search hot paths never touch the registry mutex.
struct PortalMetrics {
    geo_searches: std::sync::Arc<hft_obs::Counter>,
    geo_ns: std::sync::Arc<hft_obs::Histogram>,
    site_searches: std::sync::Arc<hft_obs::Counter>,
    site_ns: std::sync::Arc<hft_obs::Histogram>,
}

fn portal_metrics() -> &'static PortalMetrics {
    static METRICS: std::sync::OnceLock<PortalMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = hft_obs::global();
        PortalMetrics {
            geo_searches: r.counter("uls.geographic_searches"),
            geo_ns: r.histogram("uls.geographic_search_ns"),
            site_searches: r.counter("uls.site_searches"),
            site_ns: r.histogram("uls.site_search_ns"),
        }
    })
}

impl UlsPortal for UlsDatabase {
    fn geographic_search(&self, center: &LatLon, radius_km: f64) -> Vec<&License> {
        let m = portal_metrics();
        m.geo_searches.incr();
        let started = std::time::Instant::now();
        let radius_m = radius_km * 1000.0;
        if !radius_m.is_finite() || radius_m < 0.0 {
            // Matches the scalar predicate, which no distance satisfies.
            return Vec::new();
        }
        let test = RadiusTest::new(center, radius_m);
        let hits: Vec<&License> = self
            .sites
            .matching_licenses(&test, self.licenses.len())
            .into_iter()
            .map(|i| &self.licenses[i])
            .collect();
        m.geo_ns.record(started.elapsed().as_nanos() as u64);
        hits
    }

    fn site_search(&self, service: &RadioService, class: &StationClass) -> Vec<&License> {
        let m = portal_metrics();
        m.site_searches.incr();
        let started = std::time::Instant::now();
        let hits: Vec<&License> = self
            .by_service_class
            .get(&(service.clone(), class.clone()))
            .map(|ps| ps.iter().map(|&p| &self.licenses[p as usize]).collect())
            .unwrap_or_default();
        m.site_ns.record(started.elapsed().as_nanos() as u64);
        hits
    }

    fn licensee_search(&self, licensee: &str) -> Vec<&License> {
        let positions = self.filings(licensee).positions.iter();
        positions.map(|&p| &self.licenses[p as usize]).collect()
    }

    fn license_detail(&self, id: LicenseId) -> Option<&License> {
        let slot = self.id_slot(id);
        self.holds_id_at(slot, id)
            .then(|| &self.licenses[self.by_id[slot] as usize])
    }
}

/// The items `items()` yields, grouped by `key`, each group holding
/// `value` of its items in iteration order. A counting pass over
/// `items()` first sizes every group, so each one is allocated once, at
/// exactly its length.
pub(crate) fn group_exact<It, K, V>(
    items: impl Fn() -> It,
    key: impl Fn(&It::Item) -> K,
    value: impl Fn(It::Item) -> V,
) -> HashMap<K, Vec<V>>
where
    It: Iterator,
    K: std::hash::Hash + Eq,
{
    let mut counts: HashMap<K, usize> = HashMap::new();
    for item in items() {
        *counts.entry(key(&item)).or_default() += 1;
    }
    let mut groups: HashMap<K, Vec<V>> = counts
        .into_iter()
        .map(|(k, n)| (k, Vec::with_capacity(n)))
        .collect();
    for item in items() {
        let group = groups.get_mut(&key(&item)).expect("counted above");
        group.push(value(item));
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::license::{CallSign, FrequencyAssignment, MicrowavePath, TowerSite};
    use hft_time::Date;

    fn lic(id: u64, licensee: &str, service: RadioService, lat: f64, lon: f64) -> License {
        let tx = TowerSite::at(LatLon::new(lat, lon).unwrap());
        let rx = TowerSite::at(LatLon::new(lat + 0.2, lon + 0.5).unwrap());
        License {
            id: LicenseId(id),
            call_sign: CallSign(format!("WQ{id:05}")),
            licensee: licensee.into(),
            service,
            station_class: StationClass::FXO,
            grant_date: Date::new(2015, 1, 1).unwrap(),
            termination_date: None,
            cancellation_date: None,
            paths: vec![MicrowavePath {
                tx,
                rx,
                frequencies: vec![FrequencyAssignment { center_hz: 6.0e9 }],
            }],
        }
    }

    fn db() -> UlsDatabase {
        UlsDatabase::from_licenses(vec![
            lic(1, "Alpha", RadioService::MG, 41.76, -88.17),
            lic(2, "Alpha", RadioService::MG, 41.70, -87.60),
            lic(3, "Beta", RadioService::MG, 41.76, -88.18),
            lic(4, "Gamma", RadioService::CF, 41.76, -88.17),
            lic(5, "Delta", RadioService::MG, 35.00, -100.00),
        ])
    }

    #[test]
    fn geographic_search_radius() {
        let db = db();
        let cme = LatLon::new(41.7625, -88.171233).unwrap();
        let hits = db.geographic_search(&cme, 10.0);
        let ids: Vec<u64> = hits.iter().map(|l| l.id.0).collect();
        assert!(ids.contains(&1) && ids.contains(&3) && ids.contains(&4));
        assert!(!ids.contains(&5));
    }

    #[test]
    fn geographic_search_counts_rx_sites_too() {
        let db = db();
        // License 2's tx is ~50 km east of CME, but test around its rx site.
        let near_rx = LatLon::new(41.90, -87.10).unwrap();
        let hits = db.geographic_search(&near_rx, 15.0);
        assert!(hits.iter().any(|l| l.id.0 == 2));
    }

    #[test]
    fn site_search_filters_service() {
        let db = db();
        let hits = db.site_search(&RadioService::MG, &StationClass::FXO);
        assert_eq!(hits.len(), 4);
        assert!(hits.iter().all(|l| l.service == RadioService::MG));
    }

    #[test]
    fn licensee_search_exact() {
        let db = db();
        assert_eq!(db.licensee_search("Alpha").len(), 2);
        assert_eq!(db.licensee_search("Beta").len(), 1);
        assert!(
            db.licensee_search("alpha").is_empty(),
            "match is exact, like the ULS"
        );
        assert!(db.licensee_search("Nobody").is_empty());
    }

    #[test]
    fn license_detail_lookup() {
        let db = db();
        assert_eq!(db.license_detail(LicenseId(3)).unwrap().licensee, "Beta");
        assert!(db.license_detail(LicenseId(99)).is_none());
    }

    #[test]
    fn licensees_sorted_distinct() {
        let db = db();
        assert_eq!(db.licensees(), vec!["Alpha", "Beta", "Delta", "Gamma"]);
    }

    #[test]
    #[should_panic(expected = "duplicate license id")]
    fn duplicate_id_panics() {
        let mut db = db();
        db.insert(lic(1, "Dup", RadioService::MG, 41.0, -88.0));
    }

    #[test]
    fn empty_database() {
        let db = UlsDatabase::new();
        assert!(db.is_empty());
        assert_eq!(db.len(), 0);
        let cme = LatLon::new(41.76, -88.17).unwrap();
        assert!(db.geographic_search(&cme, 10.0).is_empty());
    }

    #[test]
    fn indexed_searches_match_linear_references() {
        let db = db();
        let cme = LatLon::new(41.7625, -88.171233).unwrap();
        for radius_km in [0.0, 1.0, 10.0, 60.0, 500.0, 25_000.0] {
            let indexed: Vec<u64> = db
                .geographic_search(&cme, radius_km)
                .iter()
                .map(|l| l.id.0)
                .collect();
            let linear: Vec<u64> = db
                .geographic_search_linear(&cme, radius_km)
                .iter()
                .map(|l| l.id.0)
                .collect();
            assert_eq!(indexed, linear, "radius {radius_km} km");
        }
        for service in [RadioService::MG, RadioService::CF, RadioService::AF] {
            let indexed: Vec<u64> = db
                .site_search(&service, &StationClass::FXO)
                .iter()
                .map(|l| l.id.0)
                .collect();
            let linear: Vec<u64> = db
                .site_search_linear(&service, &StationClass::FXO)
                .iter()
                .map(|l| l.id.0)
                .collect();
            assert_eq!(indexed, linear, "service {}", service.code());
        }
    }

    #[test]
    fn degenerate_radii_return_empty() {
        let db = db();
        let cme = LatLon::new(41.7625, -88.171233).unwrap();
        assert!(db.geographic_search(&cme, -1.0).is_empty());
        assert!(db.geographic_search(&cme, f64::NAN).is_empty());
        assert!(db.geographic_search_linear(&cme, -1.0).is_empty());
    }

    #[test]
    fn licensee_cache_tracks_incremental_inserts() {
        let mut db = db();
        assert_eq!(db.licensees(), vec!["Alpha", "Beta", "Delta", "Gamma"]);
        db.insert(lic(6, "Aardvark", RadioService::MG, 41.0, -88.0));
        db.insert(lic(7, "Alpha", RadioService::MG, 41.1, -88.1));
        db.insert(lic(8, "Zeta", RadioService::AF, 41.2, -88.2));
        assert_eq!(
            db.licensees(),
            vec!["Aardvark", "Alpha", "Beta", "Delta", "Gamma", "Zeta"]
        );
    }

    #[test]
    fn site_index_buckets_every_site() {
        let db = db();
        // 5 licenses × (tx + rx) sites.
        assert_eq!(db.site_index().site_count(), 10);
        assert!(db.site_index().cell_count() > 0);
    }

    #[test]
    fn extend_equals_per_insert() {
        let batch = vec![
            lic(1, "Alpha", RadioService::MG, 41.76, -88.17),
            lic(2, "Zeta", RadioService::CF, 41.70, -87.60),
            lic(3, "Alpha", RadioService::MG, 41.76, -88.18),
            lic(4, "Mid", RadioService::AF, 41.76, -88.17),
        ];
        let mut per_insert = UlsDatabase::new();
        for l in batch.clone() {
            per_insert.insert(l);
        }
        let mut bulk = UlsDatabase::new();
        bulk.extend(batch.clone());
        assert_eq!(per_insert, bulk);
        // Split across two batches: the second inserts one at a time.
        let mut split = UlsDatabase::new();
        split.extend(batch[..2].to_vec());
        split.extend(batch[2..].to_vec());
        assert_eq!(per_insert, split);
        assert_eq!(split.licensees(), vec!["Alpha", "Mid", "Zeta"]);
    }

    #[test]
    fn replace_repairs_every_index() {
        let mut db = db();
        // Move license 3 (idx 2) from "Beta" to "Alpha", MG→CF, new call
        // sign, new location.
        let mut repl = lic(3, "Alpha", RadioService::CF, 35.0, -100.0);
        repl.call_sign = CallSign("WREPL".into());
        db.replace(2, repl.clone());
        // Equality vs a from-scratch build over the updated sequence is
        // the full-index check.
        let mut want = db.licenses().to_vec();
        want[2] = repl;
        assert_eq!(db, UlsDatabase::from_licenses(want));
        // "Beta" had only that filing: gone from the licensee map.
        assert_eq!(db.licensees(), vec!["Alpha", "Delta", "Gamma"]);
        assert!(db.licensee_search("Beta").is_empty());
        assert_eq!(db.licensee_search("Alpha").len(), 3);
        assert_eq!(db.find_call_sign("WREPL"), Some(2));
        assert_eq!(db.find_call_sign("WQ00003"), None);
        // Geographic search no longer sees the old site, sees the new one.
        let cme = LatLon::new(41.7625, -88.171233).unwrap();
        assert!(!db.geographic_search(&cme, 10.0).iter().any(|l| l.id.0 == 3));
        let tx = LatLon::new(35.0, -100.0).unwrap();
        assert!(db.geographic_search(&tx, 5.0).iter().any(|l| l.id.0 == 3));
    }

    #[test]
    #[should_panic(expected = "duplicate license id")]
    fn replace_rejects_id_collision() {
        let mut db = db();
        db.replace(2, lic(1, "Beta", RadioService::MG, 41.0, -88.0));
    }

    #[test]
    fn find_call_sign_latest_filing_wins() {
        let mut db = db();
        assert_eq!(db.find_call_sign("WQ00002"), Some(1));
        let dup = lic(9, "Echo", RadioService::MG, 41.5, -88.5);
        let mut dup = dup;
        dup.call_sign = CallSign("WQ00002".into());
        db.insert(dup);
        assert_eq!(db.find_call_sign("WQ00002"), Some(5));
        assert_eq!(db.find_call_sign("NOPE"), None);
    }

    #[test]
    fn set_cancellation_is_a_field_write() {
        let mut db = db();
        let d = Date::new(2018, 7, 1).unwrap();
        db.set_cancellation(0, Some(d));
        assert_eq!(db.licenses()[0].cancellation_date, Some(d));
        let mut want = db.licenses().to_vec();
        want[0].cancellation_date = Some(d);
        assert_eq!(db, UlsDatabase::from_licenses(want));
        // Alpha's two licenses share a grant; the cancellation opens a
        // third epoch.
        let alpha = db.filings("Alpha");
        assert_eq!(alpha.epoch_count(), 3);
        assert_eq!(alpha.epoch(d), 2);
        assert_eq!(alpha.epoch_start(2), d);
        db.set_cancellation(0, None);
        assert_eq!(db.licenses()[0].cancellation_date, None);
        assert_eq!(db.filings("Alpha").epoch_count(), 2);
        assert_eq!(db.filings("Nobody").epoch_count(), 1);
        assert!(db.filings("Nobody").positions().is_empty());
    }

    #[test]
    fn site_search_unknown_pair_is_empty() {
        let db = db();
        assert!(db
            .site_search(&RadioService::AF, &StationClass::MO)
            .is_empty());
        assert!(db
            .site_search(&RadioService::Other("ZZ".into()), &StationClass::FXO)
            .is_empty());
    }
}
