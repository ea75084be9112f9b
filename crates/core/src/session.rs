//! The shared snapshot engine: one [`AnalysisSession`] over a license
//! corpus, epoch-keyed memoization of every derived artifact, and
//! scoped-thread fan-out.
//!
//! # Epochs
//!
//! A licensee's reconstructed network is a pure function of *which of its
//! licenses are active* on the as-of date. Activity of a license is
//! decided entirely by the predicates `event ≤ date` over its three
//! lifecycle dates (grant, cancellation, termination — see
//! [`License::status_on`]). Take the sorted, deduplicated union `E` of a
//! licensee's lifecycle dates: between two consecutive elements of `E`
//! every such predicate is constant, so reconstruction is provably
//! constant there too. The index of a date within `E`
//! (`partition_point(|e| *e <= date)`) is its **epoch**, and
//! `(licensee, epoch)` — not `(licensee, date)` — is the true identity of
//! a snapshot. The paper's nine-date evolution scan (§4) collapses to the
//! distinct epochs each licensee actually crossed.
//!
//! The corpus keeps `E` and the licensee's corpus positions in its
//! licensee map ([`UlsDatabase::filings`]), updated by every edit, so a
//! session reads them and building one walks no license.
//!
//! # Caching
//!
//! Networks are memoized on `(licensee, epoch, options)`; routing graphs,
//! routes and APA on `(licensee, epoch, options, dc-pair)`. Every cache
//! is a [`Memo`], so concurrent misses on one key compute once, and
//! counters are atomic: a session can be shared across the scoped
//! threads of [`par_map`], which the corridor generator uses too.
//!
//! # As-of dates
//!
//! A cached [`Network`] carries the *epoch-representative* as-of date
//! (the event opening its epoch; [`Date::MIN`] for epoch 0), so cache
//! contents never depend on request order. Consumers that print the
//! as-of date (YAML/GeoJSON export) must use
//! [`AnalysisSession::network_at`], which restamps a clone with the exact
//! requested date.

use crate::corridor::DataCenter;
use crate::evolution::{EvolutionPoint, Trajectory};
use crate::memo::{Memo, Outcome};
use crate::network::Network;
use crate::reconstruct::{reconstruct, ReconstructOptions};
use crate::route::{Route, RoutingGraph};
use hft_geodesy::{LatLon, SnapGrid};
use hft_time::Date;
use hft_uls::scrape::{run_pipeline, FunnelReport, ScrapeConfig};
use hft_uls::{License, UlsDatabase, UlsPortal};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The corpus a session analyzes: a borrowed database, or a shared
/// (`Arc`-owned) one.
enum Corpus<'a> {
    /// Borrowed corpus ([`AnalysisSession::new`]).
    Borrowed(&'a UlsDatabase),
    /// Shared corpus ([`AnalysisSession::shared`],
    /// [`AnalysisSession::over`]); keeps its generation alive for as
    /// long as the session does, which is what lets in-flight queries
    /// finish on the snapshot they started on while the ingest applier
    /// publishes newer ones.
    Shared(Arc<UlsDatabase>),
}

/// Hashable identity of a [`ReconstructOptions`] (part of every cache
/// key, so sessions with different options never alias).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptionsKey {
    snap: SnapGrid,
    min_link_bits: u64,
}

impl From<&ReconstructOptions> for OptionsKey {
    fn from(o: &ReconstructOptions) -> OptionsKey {
        OptionsKey {
            snap: o.snap,
            min_link_bits: o.min_link_m.to_bits(),
        }
    }
}

/// Atomic hit/miss counters of an [`AnalysisSession`].
///
/// Dual-write: each event bumps a per-session atomic (the
/// [`StatsSnapshot`] view existing consumers read) *and* the matching
/// `session.*` metric in the global [`hft_obs`] registry, where every
/// session in the process aggregates. Registry handles are resolved
/// once at construction, so the per-event cost is two relaxed adds.
#[derive(Debug)]
pub struct SessionStats {
    network_hits: Tally,
    reconstructions: Tally,
    route_hits: Tally,
    route_misses: Tally,
    apa_hits: Tally,
    apa_misses: Tally,
    graph_hits: Tally,
    graph_misses: Tally,
    reconstruct_ns: Arc<hft_obs::Histogram>,
}

/// One dual-written count: the session's own atomic and the registry
/// counter of the same name.
#[derive(Debug)]
struct Tally {
    own: AtomicU64,
    registry: Arc<hft_obs::Counter>,
}

impl Tally {
    fn new(name: &str) -> Tally {
        Tally {
            own: AtomicU64::new(0),
            registry: hft_obs::global().counter(name),
        }
    }

    fn bump(&self) {
        self.own.fetch_add(1, Ordering::Relaxed);
        self.registry.incr();
    }

    fn value(&self) -> u64 {
        self.own.load(Ordering::Relaxed)
    }
}

impl Default for SessionStats {
    fn default() -> SessionStats {
        SessionStats {
            network_hits: Tally::new("session.network_hits"),
            reconstructions: Tally::new("session.reconstructions"),
            route_hits: Tally::new("session.route_hits"),
            route_misses: Tally::new("session.route_misses"),
            apa_hits: Tally::new("session.apa_hits"),
            apa_misses: Tally::new("session.apa_misses"),
            graph_hits: Tally::new("session.graph_hits"),
            graph_misses: Tally::new("session.graph_misses"),
            reconstruct_ns: hft_obs::global().histogram("session.reconstruct_ns"),
        }
    }
}

/// A point-in-time copy of [`SessionStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Network requests answered from the epoch cache.
    pub network_hits: u64,
    /// Network requests that ran a full reconstruction (cache misses).
    pub reconstructions: u64,
    /// Route requests answered from cache.
    pub route_hits: u64,
    /// Route requests computed fresh.
    pub route_misses: u64,
    /// APA requests answered from cache.
    pub apa_hits: u64,
    /// APA requests computed fresh.
    pub apa_misses: u64,
    /// Routing-graph requests answered from cache.
    pub graph_hits: u64,
    /// Routing-graph requests built fresh.
    pub graph_misses: u64,
}

impl StatsSnapshot {
    /// Reconstructions a naive per-date scan would have run but the epoch
    /// cache absorbed.
    pub fn reconstructions_avoided(&self) -> u64 {
        self.network_hits
    }

    /// The counters as a single-line JSON object — the machine-readable
    /// form served by the query service's `stats` request and printed by
    /// the CLI's `--stats` flag. Rendered by the same deterministic
    /// compact writer the metrics exposition uses; key order is fixed
    /// (field declaration order) so the output is byte-deterministic.
    pub fn to_json(&self) -> String {
        hft_obs::expo::render_u64_object(&[
            ("network_hits", self.network_hits),
            ("reconstructions", self.reconstructions),
            ("route_hits", self.route_hits),
            ("route_misses", self.route_misses),
            ("apa_hits", self.apa_hits),
            ("apa_misses", self.apa_misses),
            ("graph_hits", self.graph_hits),
            ("graph_misses", self.graph_misses),
        ])
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "networks {} built / {} cached; graphs {} built / {} cached; \
             routes {} computed / {} cached; apa {} computed / {} cached",
            self.reconstructions,
            self.network_hits,
            self.graph_misses,
            self.graph_hits,
            self.route_misses,
            self.route_hits,
            self.apa_misses,
            self.apa_hits,
        )
    }
}

impl SessionStats {
    /// Copy the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            network_hits: self.network_hits.value(),
            reconstructions: self.reconstructions.value(),
            route_hits: self.route_hits.value(),
            route_misses: self.route_misses.value(),
            apa_hits: self.apa_hits.value(),
            apa_misses: self.apa_misses.value(),
            graph_hits: self.graph_hits.value(),
            graph_misses: self.graph_misses.value(),
        }
    }
}

/// Count one memo lookup: a fill is a miss; a hit, or a wait on another
/// caller's fill, is a hit.
fn count(outcome: Outcome, hits: &Tally, misses: &Tally) {
    match outcome {
        Outcome::Filled => misses.bump(),
        Outcome::Hit | Outcome::Waited => hits.bump(),
    }
}

/// Result of the cached §2.2 scrape pipeline.
#[derive(Debug, Clone)]
pub struct ScrapeOutcome {
    /// Shortlisted licensee names, sorted.
    pub shortlist: Vec<String>,
    /// The funnel counters.
    pub report: FunnelReport,
}

type NetKey = (String, usize, OptionsKey);
type PairKey = (String, usize, OptionsKey, &'static str, &'static str);
type ScrapeKey = (u64, u64, u64, usize);

/// The shared snapshot engine: reads a license corpus and serves every
/// derived artifact — networks, routing graphs, routes, APA, the scrape
/// shortlist — from epoch-keyed memos. Shareable across scoped threads;
/// see [`par_map`].
pub struct AnalysisSession<'a> {
    corpus: Corpus<'a>,
    options: ReconstructOptions,
    networks: Memo<NetKey, Arc<Network>>,
    graphs: Memo<PairKey, Arc<RoutingGraph>>,
    routes: Memo<PairKey, Option<Arc<Route>>>,
    apas: Memo<PairKey, Option<f64>>,
    scrapes: Memo<ScrapeKey, Arc<ScrapeOutcome>>,
    stats: SessionStats,
}

impl<'a> AnalysisSession<'a> {
    fn from_corpus(corpus: Corpus<'a>) -> AnalysisSession<'a> {
        AnalysisSession {
            corpus,
            options: ReconstructOptions::default(),
            networks: Memo::new("session.network", "session.network.wait"),
            graphs: Memo::new("session.graph", "session.graph.wait"),
            routes: Memo::new("session.route", "session.route.wait"),
            apas: Memo::new("session.apa", "session.apa.wait"),
            scrapes: Memo::new("session.scrape", "session.scrape.wait"),
            stats: SessionStats::default(),
        }
    }

    /// Session over a borrowed ULS database.
    pub fn new(db: &'a UlsDatabase) -> AnalysisSession<'a> {
        AnalysisSession::from_corpus(Corpus::Borrowed(db))
    }

    /// Session over a shared, `Arc`-owned database — the form the live
    /// query service uses: each published corpus generation gets a
    /// `'static` session that co-owns its snapshot, so queries started on
    /// an older generation keep a consistent corpus (and caches) until
    /// the last of them finishes.
    pub fn shared(db: Arc<UlsDatabase>) -> AnalysisSession<'static> {
        AnalysisSession::from_corpus(Corpus::Shared(db))
    }

    /// Session over a database built from copies of `licenses`, in
    /// order. Useful for tests and for [`crate::evolution::trajectory`].
    ///
    /// # Panics
    /// Panics on duplicate license ids, like
    /// [`UlsDatabase::from_licenses`].
    pub fn over(licenses: impl IntoIterator<Item = &'a License>) -> AnalysisSession<'a> {
        let db = UlsDatabase::from_licenses(licenses.into_iter().cloned().collect());
        AnalysisSession::from_corpus(Corpus::Shared(Arc::new(db)))
    }

    /// Replace the reconstruction options (builder style).
    pub fn with_options(mut self, options: ReconstructOptions) -> AnalysisSession<'a> {
        self.options = options;
        self
    }

    /// The session's reconstruction options.
    pub fn options(&self) -> &ReconstructOptions {
        &self.options
    }

    /// The corpus the session reads.
    pub fn db(&self) -> &UlsDatabase {
        match &self.corpus {
            Corpus::Borrowed(db) => db,
            Corpus::Shared(db) => db,
        }
    }

    /// Cache counters so far.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The epoch of `date` for `licensee` under this session's corpus
    /// (see [`hft_uls::Filings::epoch`]).
    pub fn epoch(&self, licensee: &str, date: Date) -> usize {
        self.db().filings(licensee).epoch(date)
    }

    /// Licenses of `licensee` active on `date`.
    pub fn active_count(&self, licensee: &str, date: Date) -> usize {
        let licenses = self.db().licenses();
        let positions = self.db().filings(licensee).positions();
        positions
            .iter()
            .filter(|&&p| licenses[p as usize].active_on(date))
            .count()
    }

    fn net_key(&self, licensee: &str, epoch: usize) -> NetKey {
        (licensee.to_string(), epoch, OptionsKey::from(&self.options))
    }

    fn pair_key(&self, licensee: &str, date: Date, a: &DataCenter, b: &DataCenter) -> PairKey {
        (
            licensee.to_string(),
            self.epoch(licensee, date),
            OptionsKey::from(&self.options),
            a.code,
            b.code,
        )
    }

    /// The reconstructed network of `licensee` as of `date`, from cache
    /// when the epoch was seen before.
    ///
    /// The returned network's `as_of` is the epoch-representative date,
    /// NOT `date` — use [`AnalysisSession::network_at`] where the printed
    /// as-of matters.
    pub fn network(&self, licensee: &str, date: Date) -> Arc<Network> {
        let epoch = self.epoch(licensee, date);
        let (net, outcome) = self.networks.get(self.net_key(licensee, epoch), || {
            let started = std::time::Instant::now();
            let as_of = self.db().filings(licensee).epoch_start(epoch);
            let licenses = self.db().licensee_search(licensee);
            let net = reconstruct(&licenses, licensee, as_of, &self.options);
            self.stats
                .reconstruct_ns
                .record(started.elapsed().as_nanos() as u64);
            Arc::new(net)
        });
        count(
            outcome,
            &self.stats.network_hits,
            &self.stats.reconstructions,
        );
        net
    }

    /// The network of `licensee` restamped with the exact `date` — for
    /// consumers that render the as-of date (YAML, GeoJSON).
    pub fn network_at(&self, licensee: &str, date: Date) -> Network {
        let mut net = (*self.network(licensee, date)).clone();
        net.as_of = date;
        net
    }

    /// The cached routing graph of `licensee`'s network between `a` and
    /// `b` as of `date`.
    pub fn routing_graph(
        &self,
        licensee: &str,
        date: Date,
        a: &DataCenter,
        b: &DataCenter,
    ) -> Arc<RoutingGraph> {
        let key = self.pair_key(licensee, date, a, b);
        let (rg, outcome) = self.graphs.get(key, || {
            Arc::new(RoutingGraph::build(&self.network(licensee, date), a, b))
        });
        count(outcome, &self.stats.graph_hits, &self.stats.graph_misses);
        rg
    }

    /// The lowest-latency route of `licensee` between `a` and `b` as of
    /// `date` (`None` when not connected), from cache per epoch.
    pub fn route(
        &self,
        licensee: &str,
        date: Date,
        a: &DataCenter,
        b: &DataCenter,
    ) -> Option<Arc<Route>> {
        let key = self.pair_key(licensee, date, a, b);
        let (route, outcome) = self.routes.get(key, || {
            let net = self.network(licensee, date);
            let rg = self.routing_graph(licensee, date, a, b);
            rg.route_filtered(&net, |_| true).map(Arc::new)
        });
        count(outcome, &self.stats.route_hits, &self.stats.route_misses);
        route
    }

    /// Latency (ms) of [`AnalysisSession::route`].
    pub fn latency_ms(
        &self,
        licensee: &str,
        date: Date,
        a: &DataCenter,
        b: &DataCenter,
    ) -> Option<f64> {
        self.route(licensee, date, a, b).map(|r| r.latency_ms)
    }

    /// Alternate path availability of `licensee` between `a` and `b` as
    /// of `date`, cached per epoch (see [`crate::metrics::apa`]).
    pub fn apa(&self, licensee: &str, date: Date, a: &DataCenter, b: &DataCenter) -> Option<f64> {
        let key = self.pair_key(licensee, date, a, b);
        let (apa, outcome) = self.apas.get(key, || {
            let net = self.network(licensee, date);
            let rg = self.routing_graph(licensee, date, a, b);
            crate::metrics::apa_with(&rg, &net)
        });
        count(outcome, &self.stats.apa_hits, &self.stats.apa_misses);
        apa
    }

    /// Run (or replay) the §2.2 scrape pipeline against the session's
    /// database.
    pub fn scrape(&self, reference: &LatLon, config: &ScrapeConfig) -> Arc<ScrapeOutcome> {
        let key: ScrapeKey = (
            reference.lat_deg().to_bits(),
            reference.lon_deg().to_bits(),
            config.radius_km.to_bits(),
            config.min_filings,
        );
        let (outcome, _) = self.scrapes.get(key, || {
            let (_, report) = run_pipeline(self.db(), reference, config);
            Arc::new(ScrapeOutcome {
                shortlist: report.shortlist.clone(),
                report,
            })
        });
        outcome
    }

    /// The portal's indexed geographic search for many probe centers at
    /// once, fanned through [`par_map`]. Each probe walks only the
    /// candidate cells of the database's site grid; results are in probe
    /// order, each byte-identical to calling
    /// [`hft_uls::UlsPortal::geographic_search`] directly.
    pub fn par_geographic_search(&self, centers: &[LatLon], radius_km: f64) -> Vec<Vec<&License>> {
        let db = self.db();
        par_map(centers.to_vec(), move |c| {
            db.geographic_search(&c, radius_km)
        })
    }

    /// A licensee's §4 trajectory over `dates`, deduplicating per-date
    /// reconstruction through the epoch cache: a licensee spanning `k`
    /// distinct epochs across `n` dates reconstructs `k ≤ n` times.
    pub fn trajectory(
        &self,
        licensee: &str,
        a: &DataCenter,
        b: &DataCenter,
        dates: &[Date],
    ) -> Trajectory {
        let points = dates
            .iter()
            .map(|&date| {
                let latency_ms = self.latency_ms(licensee, date, a, b);
                let towers = self.network(licensee, date).tower_count();
                EvolutionPoint {
                    date,
                    latency_ms,
                    active_licenses: self.active_count(licensee, date),
                    towers,
                }
            })
            .collect();
        Trajectory {
            licensee: licensee.to_string(),
            points,
        }
    }
}

/// Order-preserving parallel map over `items` on scoped threads
/// (`std::thread::scope` — no extra dependencies). Worker count is
/// `available_parallelism`, capped at the item count.
///
/// Workers claim items one at a time from a shared atomic index rather
/// than in contiguous chunks, so items of very uneven cost (one network's
/// calibration can cost ten times another's) still spread evenly. Each
/// result lands in its item's slot, so the output does not depend on the
/// worker count or the interleaving. A panic in `f` resumes on the
/// caller's thread once every worker has stopped.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    let queue: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = queue.get(i) else {
                return done;
            };
            let item = slot
                .lock()
                .expect("par_map slot")
                .take()
                .expect("each index is claimed once");
            done.push((i, f(item)));
        }
    };
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, r) in done {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

/// A small fingerprint-keyed latency memo for throwaway probe networks
/// (the corridor generator's closed-loop calibration probes the same
/// geometry repeatedly as its bisection converges).
#[derive(Debug, Default)]
pub struct RouteMemo {
    map: HashMap<u64, Option<f64>>,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that ran the computation.
    pub misses: u64,
}

impl RouteMemo {
    /// An empty memo.
    pub fn new() -> RouteMemo {
        RouteMemo::default()
    }

    /// Return the memoized latency for `fingerprint`, computing it with
    /// `compute` on first sight.
    pub fn latency_ms(
        &mut self,
        fingerprint: u64,
        compute: impl FnOnce() -> Option<f64>,
    ) -> Option<f64> {
        if let Some(hit) = self.map.get(&fingerprint) {
            self.hits += 1;
            return *hit;
        }
        self.misses += 1;
        let value = compute();
        self.map.insert(fingerprint, value);
        value
    }
}

/// FNV-1a over a stream of 64-bit words — the fingerprint helper used
/// with [`RouteMemo`].
pub fn fingerprint_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corridor::{CME, EQUINIX_NY4};
    use hft_geodesy::gc_interpolate;
    use hft_uls::{
        CallSign, FrequencyAssignment, LicenseId, MicrowavePath, RadioService, StationClass,
        TowerSite,
    };

    fn d(y: i32, m: u32, day: u32) -> Date {
        Date::new(y, m, day).unwrap()
    }

    /// One license per hop of a straight CME→NY4 chain.
    fn chain_licenses(
        licensee: &str,
        grant: Date,
        cancel: Option<Date>,
        n: usize,
        base_id: u64,
    ) -> Vec<License> {
        let a = CME.position();
        let b = EQUINIX_NY4.position();
        let pos = |i: usize| gc_interpolate(&a, &b, 0.004 + (i as f64 / (n - 1) as f64) * 0.992);
        (0..n - 1)
            .map(|i| License {
                id: LicenseId(base_id + i as u64),
                call_sign: CallSign(format!("WQ{:05}", base_id + i as u64)),
                licensee: licensee.into(),
                service: RadioService::MG,
                station_class: StationClass::FXO,
                grant_date: grant,
                termination_date: None,
                cancellation_date: cancel,
                paths: vec![MicrowavePath {
                    tx: TowerSite::at(pos(i)),
                    rx: TowerSite::at(pos(i + 1)),
                    frequencies: vec![FrequencyAssignment { center_hz: 6.1e9 }],
                }],
            })
            .collect()
    }

    #[test]
    fn epochs_partition_the_timeline() {
        let lics = chain_licenses("Net", d(2015, 6, 1), Some(d(2018, 3, 1)), 5, 1);
        let s = AnalysisSession::over(&lics);
        // Events: 2015-06-01 (grant), 2018-03-01 (cancel) → 3 epochs.
        let filings = s.db().filings("Net");
        assert_eq!(filings.epoch_count(), 3);
        assert_eq!(s.epoch("Net", d(2015, 5, 31)), 0);
        assert_eq!(
            s.epoch("Net", d(2015, 6, 1)),
            1,
            "event day starts its epoch"
        );
        assert_eq!(s.epoch("Net", d(2018, 2, 28)), 1);
        assert_eq!(s.epoch("Net", d(2018, 3, 1)), 2);
        assert_eq!(s.epoch("Net", d(2025, 1, 1)), 2);
        assert_eq!(filings.epoch_start(0), Date::MIN);
        assert_eq!(filings.epoch_start(1), d(2015, 6, 1));
    }

    #[test]
    fn same_epoch_reconstructs_once() {
        let lics = chain_licenses("Net", d(2015, 6, 1), None, 25, 1);
        let s = AnalysisSession::over(&lics);
        let n1 = s.network("Net", d(2016, 1, 1));
        let n2 = s.network("Net", d(2019, 7, 4));
        assert!(Arc::ptr_eq(&n1, &n2), "same epoch must share the snapshot");
        let stats = s.stats();
        assert_eq!(stats.reconstructions, 1);
        assert_eq!(stats.network_hits, 1);
    }

    #[test]
    fn different_epochs_reconstruct_separately() {
        let lics = chain_licenses("Net", d(2015, 6, 1), Some(d(2018, 3, 1)), 25, 1);
        let s = AnalysisSession::over(&lics);
        let active = s.network("Net", d(2016, 1, 1));
        let gone = s.network("Net", d(2019, 1, 1));
        assert_eq!(active.tower_count(), 25);
        assert_eq!(gone.tower_count(), 0);
        assert_eq!(s.stats().reconstructions, 2);
    }

    #[test]
    fn network_at_restamps_exact_date() {
        let lics = chain_licenses("Net", d(2015, 6, 1), None, 5, 1);
        let s = AnalysisSession::over(&lics);
        let exact = s.network_at("Net", d(2017, 2, 3));
        assert_eq!(exact.as_of, d(2017, 2, 3));
        // The cached copy keeps the canonical epoch date.
        assert_eq!(s.network("Net", d(2017, 2, 3)).as_of, d(2015, 6, 1));
    }

    #[test]
    fn cached_route_and_apa_match_direct_computation() {
        let lics = chain_licenses("Net", d(2015, 6, 1), None, 25, 1);
        let s = AnalysisSession::over(&lics);
        let refs: Vec<&License> = lics.iter().collect();
        let direct_net = reconstruct(&refs, "Net", d(2020, 4, 1), &ReconstructOptions::default());
        let direct = crate::route::route(&direct_net, &CME, &EQUINIX_NY4).unwrap();
        let cached = s.route("Net", d(2020, 4, 1), &CME, &EQUINIX_NY4).unwrap();
        assert_eq!(cached.latency_ms, direct.latency_ms);
        assert_eq!(cached.towers, direct.towers);
        let direct_apa = crate::metrics::apa(&direct_net, &CME, &EQUINIX_NY4);
        assert_eq!(s.apa("Net", d(2020, 4, 1), &CME, &EQUINIX_NY4), direct_apa);
        // Second lookups hit.
        s.route("Net", d(2019, 1, 1), &CME, &EQUINIX_NY4);
        s.apa("Net", d(2018, 1, 1), &CME, &EQUINIX_NY4);
        let stats = s.stats();
        assert_eq!(stats.route_misses, 1);
        assert_eq!(stats.route_hits, 1);
        assert_eq!(stats.apa_misses, 1);
        assert_eq!(stats.apa_hits, 1);
    }

    #[test]
    fn trajectory_collapses_dates_to_epochs() {
        let lics = chain_licenses("Net", d(2015, 6, 1), Some(d(2018, 3, 1)), 25, 1);
        let s = AnalysisSession::over(&lics);
        let dates: Vec<Date> = (2013..=2021).map(|y| d(y, 1, 1)).collect();
        let t = s.trajectory("Net", &CME, &EQUINIX_NY4, &dates);
        assert_eq!(t.points.len(), 9);
        // 9 dates span 3 epochs → exactly 3 reconstructions.
        assert_eq!(s.stats().reconstructions, 3);
        assert!(s.stats().reconstructions_avoided() > 0);
        // Each point matches a per-date reconstruction, route and linear
        // active count.
        let refs: Vec<&License> = lics.iter().collect();
        for (point, &date) in t.points.iter().zip(&dates) {
            let net = reconstruct(&refs, "Net", date, &ReconstructOptions::default());
            let want = EvolutionPoint {
                date,
                latency_ms: crate::route::route(&net, &CME, &EQUINIX_NY4).map(|r| r.latency_ms),
                active_licenses: lics.iter().filter(|l| l.active_on(date)).count(),
                towers: net.tower_count(),
            };
            assert_eq!(*point, want, "{}", date.to_iso());
        }
    }

    #[test]
    fn free_par_map_keeps_item_order_under_uneven_costs() {
        // Early items take longest, so workers finish out of item order;
        // each result still lands in its item's slot.
        let items: Vec<u64> = (0..32).collect();
        let out = par_map(items.clone(), |i| {
            std::thread::sleep(std::time::Duration::from_micros((32 - i) * 20));
            i * i
        });
        assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn free_par_map_resumes_a_worker_panic_on_the_caller() {
        par_map((0..8).collect(), |i: u32| {
            assert_ne!(i, 3, "item {i} failed");
            i
        });
    }

    #[test]
    fn par_map_preserves_order_and_shares_cache() {
        let mut lics = chain_licenses("A", d(2015, 1, 1), None, 25, 1);
        lics.extend(chain_licenses("B", d(2016, 1, 1), None, 25, 1000));
        let s = AnalysisSession::over(&lics);
        let names: Vec<&str> = vec!["A", "B", "A", "B", "A"];
        let latencies = par_map(names.clone(), |name| {
            s.latency_ms(name, d(2020, 4, 1), &CME, &EQUINIX_NY4)
        });
        assert_eq!(latencies.len(), 5);
        assert_eq!(latencies[0], latencies[2]);
        assert_eq!(latencies[1], latencies[3]);
        assert!(latencies[0].is_some() && latencies[1].is_some());
        // Only two distinct (licensee, epoch) snapshots exist.
        assert_eq!(s.stats().reconstructions, 2);
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(empty, |x: u8| x).is_empty());
    }

    #[test]
    fn par_geographic_search_matches_portal() {
        let lics = chain_licenses("Net", d(2015, 6, 1), None, 25, 1);
        let db = UlsDatabase::from_licenses(lics);
        let s = AnalysisSession::new(&db);
        let a = CME.position();
        let b = EQUINIX_NY4.position();
        let centers = vec![a, b, gc_interpolate(&a, &b, 0.5)];
        let fanned = s.par_geographic_search(&centers, 25.0);
        assert_eq!(fanned.len(), centers.len());
        for (center, got) in centers.iter().zip(&fanned) {
            let got_ids: Vec<u64> = got.iter().map(|l| l.id.0).collect();
            let direct_ids: Vec<u64> = db
                .geographic_search(center, 25.0)
                .iter()
                .map(|l| l.id.0)
                .collect();
            assert_eq!(got_ids, direct_ids);
        }
        assert!(!fanned[0].is_empty(), "probe at CME must see the chain");
    }

    #[test]
    fn shared_session_outlives_its_local_handle() {
        // A shared session co-owns its corpus: the Arc handle the caller
        // held can be dropped (as the ingest applier does when it
        // publishes a newer generation) and the session stays valid.
        let lics = chain_licenses("Net", d(2015, 6, 1), None, 25, 1);
        let borrowed_db = UlsDatabase::from_licenses(lics);
        let borrowed = AnalysisSession::new(&borrowed_db);
        let session: AnalysisSession<'static> = {
            let arc = Arc::new(borrowed_db.clone());
            AnalysisSession::shared(Arc::clone(&arc))
            // `arc` dropped here; the session keeps the corpus alive.
        };
        let want = borrowed.network("Net", d(2020, 4, 1));
        let got = session.network("Net", d(2020, 4, 1));
        assert_eq!(got.tower_count(), want.tower_count());
        assert_eq!(got.as_of, want.as_of);
        // Portal-backed operations work through the shared corpus too.
        assert_eq!(session.db().len(), borrowed_db.len());
        let probes = vec![CME.position()];
        let hits = session.par_geographic_search(&probes, 25.0);
        assert!(!hits[0].is_empty());
        assert_eq!(session.active_count("Net", d(2020, 4, 1)), 24);
    }

    #[test]
    fn route_memo_hits_on_repeat_fingerprints() {
        let mut memo = RouteMemo::new();
        let mut evals = 0;
        let fp = fingerprint_words([1, 2, 3]);
        for _ in 0..5 {
            let v = memo.latency_ms(fp, || {
                evals += 1;
                Some(4.2)
            });
            assert_eq!(v, Some(4.2));
        }
        assert_eq!(evals, 1);
        assert_eq!(memo.hits, 4);
        assert_eq!(memo.misses, 1);
        assert_ne!(fingerprint_words([1, 2, 3]), fingerprint_words([1, 3, 2]));
    }

    #[test]
    fn stats_json_is_compact_and_key_ordered() {
        let lics = chain_licenses("Net", d(2015, 6, 1), None, 5, 1);
        let s = AnalysisSession::over(&lics);
        s.network("Net", d(2016, 1, 1));
        s.network("Net", d(2017, 1, 1));
        let json = s.stats().to_json();
        assert_eq!(
            json,
            "{\"network_hits\":1,\"reconstructions\":1,\"route_hits\":0,\
             \"route_misses\":0,\"apa_hits\":0,\"apa_misses\":0,\
             \"graph_hits\":0,\"graph_misses\":0}",
            "fixed key order, compact writer"
        );
    }

    #[test]
    fn options_key_distinguishes_options() {
        let a = OptionsKey::from(&ReconstructOptions::default());
        let b = OptionsKey::from(&ReconstructOptions {
            min_link_m: 1.0,
            ..ReconstructOptions::default()
        });
        assert_ne!(a, b);
        assert_eq!(a, OptionsKey::from(&ReconstructOptions::default()));
    }
}
