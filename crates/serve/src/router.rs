//! The shard router: the handler every server runs, answering over a
//! fleet of N in-process shards. A fixed corpus is a one-shard fleet
//! whose store never publishes.
//!
//! A [`ShardRouter`] is a [`Handler`], so the whole wire stack (frames,
//! admission queue, pool workers) runs over a fleet unchanged. Each
//! [`Shard`] follows its own per-shard
//! [`SnapshotStore`] — its own engine ([`Service`]: an
//! `AnalysisSession` and race-engine memos) and shard-labeled
//! [`ServeStats`] — over the shard's disjoint piece of the corpus. A
//! shard is state, not a thread: every leg of a request runs on the
//! pool worker answering it.
//!
//! Routing follows [`Request::dispatch`]:
//!
//! * **Point** — a single-licensee request (network, route, APA,
//!   weather, race, stretch sweep) runs on its owner alone
//!   ([`ShardRouter::owner`]). Under the licensee-hash strategy the
//!   owner is a pure function of the name; under the spatial strategy
//!   it is the shard whose corpus files under the name. A name no shard
//!   files under goes to shard 0, whose answer is the unknown-licensee
//!   answer a single corpus gives.
//! * **Scatter** — geographic, site and funnel queries run on every
//!   shard in turn and the per-shard answers merge deterministically:
//!   license searches merge ascending ids, funnel counters sum
//!   (licensee-granular partitioning makes per-shard counts disjoint),
//!   and shortlist names merge sorted. The merged bytes are identical
//!   to a single-corpus [`Service`] answer.
//! * **Telemetry** — `stats` sums the shards' counters; the registry
//!   and the flight recorder are process-wide.
//!
//! **Generation swaps:** each shard holds *one engine per corpus*.
//! Every corpus its store publishes gets a fresh [`Service`] built over
//! a shared handle to that corpus, so a network memoized against
//! generation *N* lives in that corpus's engine, which no request
//! routed after a swap can reach. Requests already inside the old
//! engine finish against it: its session co-owns its corpus `Arc`. A
//! generation that republishes the corpus `Arc` the engine already
//! reads (a shard a dump batch left alone) is *relabelled*, not
//! rebuilt: the engine keeps its caches. Staleness detection is one
//! atomic load ([`SnapshotStore::generation`]) per request; the engine
//! mutex is taken only to clone the engine handle out (and, rarely, to
//! rebuild it), never while computing a response.
//!
//! **Generation-vector pinning:** a scatter, and a spatial owner
//! lookup, captures every shard's current engine in one pass *before*
//! any leg runs ([`ShardRouter::engines`]), so all per-shard
//! computations run against the generation vector that existed when
//! the request started — a publish landing mid-request cannot produce
//! an answer mixing a shard's old corpus with another's new one beyond
//! what the vector already showed at capture time. Callers that need a
//! provably-uniform vector bracket the request with
//! [`ShardedStore::generation_vector`] reads, exactly as single-store
//! clients bracket with the generation counter.

use crate::api::{Dispatch, Request, Response};
use crate::service::{metrics_json, traces_response, Handler, Service};
use crate::stats::{ServeSnapshot, ServeStats};
use hft_core::session::StatsSnapshot;
use hft_ingest::{ShardedStore, SnapshotStore};
use hft_uls::shard::{shard_of_licensee, ShardStrategy};
#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A fleet of in-process shards behind one [`Handler`]. See the module
/// docs.
pub struct ShardRouter {
    shards: Vec<Shard>,
    strategy: ShardStrategy,
    /// Transport-level counters (received/queued/completed): the wire
    /// server reports into these; per-shard work reports into each
    /// shard's own labeled stats.
    stats: Arc<ServeStats>,
    /// Fault point: calls to this shard panic (`usize::MAX` for none).
    #[cfg(test)]
    panicking_shard: AtomicUsize,
}

impl ShardRouter {
    /// A router over `store`'s shards.
    pub fn over(store: &ShardedStore) -> ShardRouter {
        ShardRouter {
            shards: store
                .shards()
                .iter()
                .enumerate()
                .map(|(k, s)| Shard::new(Arc::clone(s), k as u32))
                .collect(),
            strategy: store.strategy(),
            stats: Arc::new(ServeStats::default()),
            #[cfg(test)]
            panicking_shard: AtomicUsize::new(usize::MAX),
        }
    }

    /// The shards, in shard order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Every shard's current engine, in shard order, captured in one
    /// pass: one generation vector.
    pub fn engines(&self) -> Vec<Arc<Service<'static>>> {
        self.shards.iter().map(Shard::engine).collect()
    }

    /// The shard that answers for `licensee`, with its current engine.
    /// Under licensee hashing that is the name's hash. Under spatial
    /// partitioning it is the first shard whose corpus files under the
    /// name, read from one generation vector, and shard 0 when none
    /// does: every shard gives an unknown licensee the same answer.
    pub fn owner(&self, licensee: &str) -> (usize, Arc<Service<'static>>) {
        if self.strategy.routes_by_name() {
            let k = shard_of_licensee(licensee, self.shards.len()) as usize;
            return (k, self.shards[k].engine());
        }
        let mut engines = self.engines();
        let k = engines
            .iter()
            .position(|e| !e.session().index().members_of(licensee).is_empty())
            .unwrap_or(0);
        (k, engines.swap_remove(k))
    }

    /// Answer one request. Safe to call from many threads at once.
    pub fn handle(&self, req: &Request) -> Response {
        match req.dispatch() {
            // The registry and the flight recorder are process-wide, so
            // the router answers them without reading an engine.
            Dispatch::Telemetry => match req {
                Request::Metrics => Response::Metrics {
                    registry: metrics_json(),
                },
                Request::Traces { limit, trace_id } => traces_response(*limit, *trace_id),
                _ => self.merged_stats(),
            },
            Dispatch::Shutdown => Response::ShuttingDown,
            Dispatch::Point(licensee) => {
                let (k, engine) = self.owner(licensee);
                let _leg = hft_obs::span_sharded("shard.call", k as u32);
                self.call(k, &engine, req)
            }
            Dispatch::Scatter => {
                let responses = self.scatter(req);
                let _merge = hft_obs::span("router.merge");
                merge_scatter(req, responses)
            }
        }
    }

    /// Run a request on every shard against a pinned generation vector,
    /// returning per-shard answers in shard order. The legs run in turn
    /// on the calling thread: a leg costs a few microseconds, less than
    /// handing it to another thread would.
    fn scatter(&self, req: &Request) -> Vec<Response> {
        let engines = self.engines();
        let _scatter = hft_obs::span("router.scatter");
        engines
            .iter()
            .enumerate()
            .map(|(k, engine)| {
                let _leg = hft_obs::span_sharded("shard.call", k as u32);
                self.call(k, engine, req)
            })
            .collect()
    }

    /// One shard call, reported into the shard's labeled counters (the
    /// router is the shards' transport).
    fn call(&self, k: usize, engine: &Service<'static>, req: &Request) -> Response {
        let stats = self.shards[k].stats();
        stats.on_received();
        #[cfg(test)]
        if self.panicking_shard.load(Ordering::SeqCst) == k {
            panic!("injected fault on shard {k}");
        }
        let started = Instant::now();
        let response = engine.handle(req);
        stats.on_service(started.elapsed().as_nanos() as u64);
        stats.on_completed(matches!(response, Response::Error { .. }));
        response
    }

    /// The fleet-wide `stats` answer: [`Handler::serve_snapshot`]'s
    /// counters plus session cache counters summed over current shard
    /// engines.
    fn merged_stats(&self) -> Response {
        let mut session = StatsSnapshot::default();
        for engine in self.engines() {
            let c = engine.session().stats();
            session.network_hits += c.network_hits;
            session.reconstructions += c.reconstructions;
            session.route_hits += c.route_hits;
            session.route_misses += c.route_misses;
            session.apa_hits += c.apa_hits;
            session.apa_misses += c.apa_misses;
            session.graph_hits += c.graph_hits;
            session.graph_misses += c.graph_misses;
        }
        // Counted after the engine reads above, so swaps they made show.
        let serve = self.serve_snapshot();
        Response::Stats { serve, session }
    }
}

impl Handler for ShardRouter {
    fn handle(&self, req: &Request) -> Response {
        ShardRouter::handle(self, req)
    }

    fn serve_stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Transport counters from the router, flight and swap counters
    /// summed over the shards' own stats. Reads no engine, so it never
    /// triggers a generation swap.
    fn serve_snapshot(&self) -> ServeSnapshot {
        let mut serve = self.stats.snapshot();
        for shard in &self.shards {
            let s = shard.stats().snapshot();
            serve.flights_led += s.flights_led;
            serve.flights_coalesced += s.flights_coalesced;
            serve.generation_swaps += s.generation_swaps;
        }
        serve
    }
}

/// One fleet shard: the engine for its store's current generation, and
/// the shard's serving counters. See the module docs on generation
/// swaps.
pub struct Shard {
    store: Arc<SnapshotStore>,
    engine: Mutex<Arc<Service<'static>>>,
    stats: Arc<ServeStats>,
    /// Registry handles, labeled by shard, resolved once.
    swap_ns: Arc<hft_obs::Histogram>,
    relabels: Arc<hft_obs::Counter>,
    staleness_ms: Arc<hft_obs::Gauge>,
}

impl Shard {
    /// Shard `k`, starting from `store`'s current snapshot.
    fn new(store: Arc<SnapshotStore>, k: u32) -> Shard {
        let stats = Arc::new(ServeStats::for_shard(k));
        let registry = hft_obs::global();
        let name = |base: &str| hft_obs::registry::labeled(base, "shard", &k.to_string());
        let snap = store.current();
        let engine = Arc::new(Service::over_snapshot(
            snap.db_arc(),
            snap.generation(),
            Arc::clone(&stats),
        ));
        Shard {
            store,
            engine: Mutex::new(engine),
            stats,
            swap_ns: registry.histogram(&name("serve.generation_swap_ns")),
            relabels: registry.counter(&name("serve.generation_relabels")),
            staleness_ms: registry.gauge(&name("serve.snapshot_staleness_ms")),
        }
    }

    /// The shard's serving counters (shared by every generation's
    /// engine).
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The engine for the store's current generation. If the store
    /// advanced since the last request, the engine is relabelled when
    /// the new generation kept its corpus, and rebuilt otherwise.
    pub fn engine(&self) -> Arc<Service<'static>> {
        let current = self.store.generation();
        let mut engine = self.engine.lock().expect("shard engine");
        if engine.generation() != current {
            let snap = self.store.current();
            if engine.generation() != snap.generation() {
                if engine.reads(snap.db()) {
                    engine.relabel(snap.generation());
                    self.relabels.incr();
                } else {
                    let started = Instant::now();
                    *engine = Arc::new(Service::over_snapshot(
                        snap.db_arc(),
                        snap.generation(),
                        Arc::clone(&self.stats),
                    ));
                    self.stats.on_generation_swap();
                    self.swap_ns.record(started.elapsed().as_nanos() as u64);
                }
            }
        }
        // How far behind the last publish this request is served —
        // near zero in steady state, growing only if the ingest
        // follower stalls.
        self.staleness_ms
            .set(self.store.last_publish_age().as_millis() as i64);
        Arc::clone(&engine)
    }
}

/// Merge scatter answers for geographic/site/funnel requests into the
/// single-corpus bytes. Shard answers arrive in shard order; every
/// merge rule below is order-free over disjoint inputs, so the result
/// does not depend on which shard answered first.
fn merge_scatter(req: &Request, responses: Vec<Response>) -> Response {
    debug_assert!(!responses.is_empty());
    match req {
        Request::Geographic { .. } | Request::SiteSearch { .. } => {
            let mut ids: Vec<u64> = Vec::new();
            for r in responses {
                match r {
                    Response::Licenses { ids: mut part } => ids.append(&mut part),
                    // Request-shaped errors (bad coordinates) are
                    // corpus-independent: every shard produced the same
                    // bytes, so returning one of them is the merge.
                    other => return other,
                }
            }
            // Disjoint sorted runs → one sorted list, as a single
            // corpus would canonically order it.
            ids.sort_unstable();
            Response::Licenses { ids }
        }
        Request::Shortlist { .. } => {
            let mut geographic_candidates = 0u64;
            let mut service_filtered = 0u64;
            let mut shortlisted = 0u64;
            let mut names: Vec<String> = Vec::new();
            for r in responses {
                match r {
                    Response::Shortlist {
                        geographic_candidates: g,
                        service_filtered: f,
                        shortlisted: s,
                        names: mut n,
                    } => {
                        // Licensee-granular partitioning: each licensee
                        // is counted by exactly one shard, so funnel
                        // counters sum without double counting.
                        geographic_candidates += g;
                        service_filtered += f;
                        shortlisted += s;
                        names.append(&mut n);
                    }
                    other => return other,
                }
            }
            names.sort_unstable();
            Response::Shortlist {
                geographic_candidates,
                service_filtered,
                shortlisted,
                names,
            }
        }
        _ => unreachable!("merge_scatter only sees scatter-gather requests"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, Server};
    use crate::wire::{self, DEFAULT_MAX_FRAME};
    use hft_geodesy::LatLon;
    use hft_time::Date;
    use hft_uls::{
        CallSign, FrequencyAssignment, License, LicenseId, MicrowavePath, RadioService,
        StationClass, TowerSite, UlsDatabase,
    };
    use std::net::TcpStream;
    use std::time::Duration;

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
        // Ids deliberately out of geographic order so canonical id
        // sorting does real work.
        UlsDatabase::from_licenses(vec![
            lic(9, "Alpha Networks", 41.0, -88.0),
            lic(2, "Beta Microwave", 41.3, -87.8),
            lic(7, "Alpha Networks", 41.6, -87.4),
            lic(4, "Gamma Wireless", 41.9, -87.1),
            lic(5, "Delta Relay", 42.2, -86.8),
        ])
    }

    fn requests() -> Vec<Request> {
        vec![
            Request::Geographic {
                lat_deg: 41.5,
                lon_deg: -87.5,
                radius_km: 200.0,
            },
            Request::Geographic {
                lat_deg: 200.0,
                lon_deg: 0.0,
                radius_km: 10.0,
            },
            Request::SiteSearch {
                service: "MG".into(),
                class: "FXO".into(),
            },
            Request::Shortlist {
                lat_deg: 41.5,
                lon_deg: -87.5,
                radius_km: 500.0,
                min_filings: 1,
            },
            Request::Network {
                licensee: "Alpha Networks".into(),
                date: Date::new(2016, 1, 1).unwrap(),
            },
            Request::Network {
                licensee: "Nobody Known".into(),
                date: Date::new(2016, 1, 1).unwrap(),
            },
            Request::Route {
                licensee: "Alpha Networks".into(),
                date: Date::new(2016, 1, 1).unwrap(),
                from: "CME".into(),
                to: "NY4".into(),
            },
            Request::Apa {
                licensee: "Beta Microwave".into(),
                date: Date::new(2016, 1, 1).unwrap(),
                from: "CME".into(),
                to: "BAD".into(),
            },
            Request::Race {
                licensee: "Alpha Networks".into(),
                date: Date::new(2016, 1, 1).unwrap(),
                from: "CME".into(),
                to: "NY4".into(),
                constellation: "starlink".into(),
                samples: 50,
                seed: 7,
            },
            Request::Race {
                licensee: "Nobody Known".into(),
                date: Date::new(2016, 1, 1).unwrap(),
                from: "CME".into(),
                to: "NYSE".into(),
                constellation: "starlink".into(),
                samples: 50,
                seed: 7,
            },
            Request::Race {
                licensee: "Alpha Networks".into(),
                date: Date::new(2016, 1, 1).unwrap(),
                from: "CME".into(),
                to: "NY4".into(),
                constellation: "iridium".into(),
                samples: 50,
                seed: 7,
            },
            Request::StretchSweep {
                licensee: "Alpha Networks".into(),
                date: Date::new(2016, 1, 1).unwrap(),
                constellation: "starlink".into(),
            },
        ]
    }

    #[test]
    fn sharded_answers_match_single_corpus_bytes() {
        let db = Arc::new(corpus());
        let single = Service::new(&db);
        for strategy in [ShardStrategy::LicenseeHash, ShardStrategy::SpatialCell] {
            for n in [1usize, 2, 3, 5] {
                let store = ShardedStore::seeded(&db, n, strategy, None);
                let router = ShardRouter::over(&store);
                for req in requests() {
                    let got = router.handle(&req).encode();
                    let want = single.handle(&req).encode();
                    assert_eq!(got, want, "{strategy:?} n={n} req={req:?}");
                }
            }
        }
    }

    #[test]
    fn router_follows_per_shard_generations() {
        let db = Arc::new(corpus());
        let store = ShardedStore::seeded(&db, 3, ShardStrategy::LicenseeHash, None);
        let router = ShardRouter::over(&store);
        let geo = Request::Geographic {
            lat_deg: 41.5,
            lon_deg: -87.5,
            radius_km: 500.0,
        };
        let before = match router.handle(&geo) {
            Response::Licenses { ids } => ids,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(before, vec![2, 4, 5, 7, 9]);

        // Publish a grown corpus through the fleet; the router must
        // answer from the new generation vector.
        let mut grown: Vec<License> = db.licenses().to_vec();
        grown.push(lic(1, "Epsilon Beam", 41.1, -87.9));
        let next = UlsDatabase::from_licenses(grown);
        assert_eq!(store.publish_full(&next, None), 1);
        assert_eq!(store.generation_vector(), vec![1, 1, 1]);
        let after = match router.handle(&geo) {
            Response::Licenses { ids } => ids,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(after, vec![1, 2, 4, 5, 7, 9]);

        // And the sharded answer still matches a single corpus of the
        // same generation.
        let single = Service::new(&next);
        assert_eq!(router.handle(&geo).encode(), single.handle(&geo).encode());
    }

    #[test]
    fn shard_workers_report_labeled_counters() {
        let db = Arc::new(corpus());
        let store = ShardedStore::seeded(&db, 2, ShardStrategy::LicenseeHash, None);
        let router = ShardRouter::over(&store);
        let geo = Request::Geographic {
            lat_deg: 41.5,
            lon_deg: -87.5,
            radius_km: 500.0,
        };
        router.handle(&geo);
        // A scatter touches every shard: each worker's own counters
        // advance (the labeled registry series mirror these atomics).
        for shard in router.shards() {
            let snap = shard.stats().snapshot();
            assert_eq!(snap.received, 1);
            assert_eq!(snap.completed, 1);
        }
        // Point-to-point touches exactly the owning shard.
        let net = Request::Network {
            licensee: "Alpha Networks".into(),
            date: Date::new(2016, 1, 1).unwrap(),
        };
        router.handle(&net);
        let owner = shard_of_licensee("Alpha Networks", 2) as usize;
        assert_eq!(router.shards()[owner].stats().snapshot().received, 2);
        assert_eq!(router.shards()[1 - owner].stats().snapshot().received, 1);
    }

    #[test]
    fn spatial_point_requests_reach_one_shard() {
        let db = Arc::new(corpus());
        let store = ShardedStore::seeded(&db, 4, ShardStrategy::SpatialCell, None);
        let router = ShardRouter::over(&store);
        let received = || -> Vec<u64> {
            let shards = router.shards().iter();
            shards.map(|s| s.stats().snapshot().received).collect()
        };
        let date = Date::new(2016, 1, 1).unwrap();
        let owners = hft_uls::shard::assign(&db, 4, ShardStrategy::SpatialCell);
        for name in db.licensees() {
            let before = received();
            router.handle(&Request::Network {
                licensee: name.into(),
                date,
            });
            let moved: Vec<usize> = (0..4).filter(|&k| received()[k] > before[k]).collect();
            assert_eq!(moved, vec![owners[name] as usize], "{name}");
        }

        // A name no shard files under reconstructs on shard 0 alone.
        let reconstructions = || -> Vec<u64> {
            let engines = router.engines().into_iter();
            engines
                .map(|e| e.session().stats().reconstructions)
                .collect()
        };
        let before = reconstructions();
        for i in 0..20 {
            router.handle(&Request::Network {
                licensee: format!("Nobody Known {i}"),
                date,
            });
        }
        let after = reconstructions();
        let grew: Vec<u64> = (0..4).map(|k| after[k] - before[k]).collect();
        assert_eq!(grew, vec![20, 0, 0, 0]);
    }

    #[test]
    fn shard_swaps_engines_with_the_store() {
        let alpha = |id: u64, lat: f64| lic(id, "Alpha Networks", lat, -88.17);
        let store = ShardedStore::seeded(
            &Arc::new(UlsDatabase::from_licenses(vec![alpha(1, 41.0)])),
            1,
            ShardStrategy::LicenseeHash,
            None,
        );
        let router = ShardRouter::over(&store);
        let shard = &router.shards()[0];
        let geo = Request::Geographic {
            lat_deg: 41.1,
            lon_deg: -88.17,
            radius_km: 100.0,
        };
        let count = |handler: &dyn Handler| match handler.handle(&geo) {
            Response::Licenses { ids } => ids.len(),
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(shard.engine().generation(), 0);
        assert_eq!(count(&router), 1);

        // Hold the generation-0 engine across a publish: it must keep
        // answering from its own corpus.
        let pinned = shard.engine();
        let grown = UlsDatabase::from_licenses(vec![alpha(1, 41.0), alpha(2, 41.2)]);
        store.shard(0).publish(Arc::new(grown), None);
        assert_eq!(count(&router), 2, "new requests see generation 1");
        assert_eq!(shard.engine().generation(), 1);
        assert_eq!(pinned.generation(), 0);
        assert_eq!(count(&*pinned), 1, "pinned engine stays on gen 0");
        assert_eq!(shard.stats().snapshot().generation_swaps, 1);

        // Republishing the corpus the engine already reads relabels it:
        // the generation advances, but the engine and its caches stay.
        let network = Request::Network {
            licensee: "Alpha Networks".into(),
            date: Date::new(2016, 1, 1).unwrap(),
        };
        router.handle(&network);
        let engine = shard.engine();
        let hits = engine.session().stats().network_hits;
        let relabels = || {
            let name = hft_obs::registry::labeled("serve.generation_relabels", "shard", "0");
            hft_obs::global().snapshot().counter(&name).unwrap_or(0)
        };
        let relabelled = relabels();
        store
            .shard(0)
            .publish(store.shard(0).current().db_arc(), None);
        assert!(
            Arc::ptr_eq(&engine, &shard.engine()),
            "relabelled, not rebuilt"
        );
        assert_eq!(engine.generation(), 2);
        assert_eq!(shard.stats().snapshot().generation_swaps, 1);
        // The registry is shared across the test binary: at least one.
        assert!(relabels() > relabelled);
        router.handle(&network);
        assert_eq!(
            shard.engine().session().stats().network_hits,
            hits + 1,
            "the network cached before the publish answers after it"
        );
    }

    #[test]
    fn memoized_networks_never_leak_across_generations() {
        let alpha = |id: u64, lat: f64| lic(id, "Alpha Networks", lat, -88.17);
        let store = ShardedStore::seeded(
            &Arc::new(UlsDatabase::from_licenses(vec![alpha(1, 41.0)])),
            1,
            ShardStrategy::LicenseeHash,
            None,
        );
        let router = ShardRouter::over(&store);
        let req = Request::Network {
            licensee: "Alpha Networks".into(),
            date: Date::new(2016, 1, 1).unwrap(),
        };
        let towers = || match router.handle(&req) {
            Response::Network { towers, .. } => towers,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(towers(), 2);
        // Grow the licensee's network; the old session has it memoized,
        // but the swap routes to a fresh engine.
        let grown = UlsDatabase::from_licenses(vec![alpha(1, 41.0), alpha(2, 42.0)]);
        assert_eq!(store.publish_full(&grown, None), 1);
        assert_eq!(towers(), 4);
    }

    #[test]
    fn merged_stats_aggregate_across_shards() {
        let db = Arc::new(corpus());
        let store = ShardedStore::seeded(&db, 2, ShardStrategy::LicenseeHash, None);
        let router = ShardRouter::over(&store);
        let net = Request::Network {
            licensee: "Alpha Networks".into(),
            date: Date::new(2016, 1, 1).unwrap(),
        };
        router.handle(&net);
        router.handle(&net);
        match router.handle(&Request::Stats) {
            Response::Stats { serve, session } => {
                assert_eq!(serve.flights_led, 2);
                assert_eq!(session.reconstructions, 1);
                assert_eq!(session.network_hits, 1);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn a_flight_is_one_shard_call() {
        let db = Arc::new(corpus());
        let store = ShardedStore::seeded(&db, 4, ShardStrategy::LicenseeHash, None);
        let router = ShardRouter::over(&store);
        let flights = || {
            let serve = router.serve_snapshot();
            serve.flights_led + serve.flights_coalesced
        };
        router.handle(&Request::Geographic {
            lat_deg: 41.5,
            lon_deg: -87.5,
            radius_km: 200.0,
        });
        assert_eq!(flights(), 4, "a scatter calls every shard once");
        router.handle(&Request::Network {
            licensee: "Alpha Networks".into(),
            date: Date::new(2016, 1, 1).unwrap(),
        });
        assert_eq!(flights(), 5, "a point request calls its owner only");
    }

    #[test]
    fn traced_scatter_runs_its_legs_in_shard_order_under_one_root() {
        let db = Arc::new(corpus());
        let store = ShardedStore::seeded(&db, 4, ShardStrategy::LicenseeHash, None);
        let router = ShardRouter::over(&store);
        // Built sampled, so the tree is filed without touching the
        // process-wide sampling stride.
        let ctx = hft_obs::TraceContext {
            sampled: true,
            ..hft_obs::TraceContext::mint()
        };
        let shortlist = Request::Shortlist {
            lat_deg: 41.5,
            lon_deg: -87.5,
            radius_km: 500.0,
            min_filings: 1,
        };
        {
            let _root = hft_obs::trace_root("serve.request", "shortlist", ctx, Instant::now());
            router.handle(&shortlist);
        }
        let tree = hft_obs::find_trace(ctx.trace_id).expect("trace filed").tree;
        tree.check().expect("well-formed tree");
        let spans = &tree.spans;
        let children = |p: usize| -> Vec<usize> {
            (0..spans.len())
                .filter(|&i| spans[i].parent == Some(p as u32))
                .collect()
        };
        let top = children(0);
        let names: Vec<&str> = top.iter().map(|&i| spans[i].name).collect();
        assert_eq!(names, ["router.scatter", "router.merge"]);
        let (scatter, merge) = (&spans[top[0]], &spans[top[1]]);
        assert!(merge.start_ns >= scatter.start_ns + scatter.dur_ns);

        let legs = children(top[0]);
        assert_eq!(legs.len(), 4, "one leg per shard");
        for (k, &leg) in legs.iter().enumerate() {
            assert_eq!(spans[leg].name, "shard.call");
            assert_eq!(spans[leg].shard, Some(k as u32), "legs run in shard order");
        }
        for pair in legs.windows(2) {
            let (a, b) = (&spans[pair[0]], &spans[pair[1]]);
            assert!(b.start_ns >= a.start_ns + a.dur_ns, "legs run in turn");
        }
        // Every span inside leg k reads shard k, and each leg has work
        // inside it (the cold scrape's memo fill).
        let mut inside = [0usize; 4];
        for (i, span) in spans.iter().enumerate() {
            let mut up = span.parent;
            while let Some(p) = up {
                if let Some(k) = legs.iter().position(|&leg| leg == p as usize) {
                    assert_eq!(span.shard, Some(k as u32), "span {i} in leg {k}");
                    inside[k] += 1;
                    break;
                }
                up = spans[p as usize].parent;
            }
        }
        assert!(inside.iter().all(|&n| n > 0), "{inside:?}");
        for span in spans {
            assert!(span.start_ns + span.dur_ns <= tree.total_ns(), "{span:?}");
        }
    }

    /// One serial JSON round trip over a raw socket, returning the
    /// answer's bytes; a missing answer fails on the read timeout
    /// instead of hanging the test.
    fn round_trip(stream: &mut TcpStream, req: &Request) -> Vec<u8> {
        wire::write_frame(stream, &req.encode()).expect("send");
        wire::read_frame(stream, DEFAULT_MAX_FRAME)
            .expect("answer before the read timeout")
            .expect("connection open")
    }

    #[test]
    fn panicking_leg_answers_error_and_the_fleet_recovers() {
        let db = Arc::new(corpus());
        let single = Service::new(&db);
        let store = ShardedStore::seeded(&db, 4, ShardStrategy::LicenseeHash, None);
        let router = Arc::new(ShardRouter::over(&store));
        // One worker: had the panic killed it, nothing would answer the
        // requests that follow.
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("local addr");
        // A detached thread, so a hung server cannot hang the test harness.
        let serving = {
            let router = Arc::clone(&router);
            std::thread::spawn(move || server.run_with(&*router))
        };
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");

        let geo = Request::Geographic {
            lat_deg: 41.5,
            lon_deg: -87.5,
            radius_km: 500.0,
        };
        router.panicking_shard.store(2, Ordering::SeqCst);
        assert_eq!(
            Response::decode(&round_trip(&mut stream, &geo)),
            Ok(Response::Error {
                message: "internal error: handler panicked".into()
            })
        );
        router.panicking_shard.store(usize::MAX, Ordering::SeqCst);
        assert_eq!(round_trip(&mut stream, &geo), single.handle(&geo).encode());

        let owned = [
            "Alpha Networks",
            "Beta Microwave",
            "Gamma Wireless",
            "Delta Relay",
        ]
        .into_iter()
        .find(|name| shard_of_licensee(name, 4) == 2)
        .expect("a corpus licensee lives on shard 2");
        let point = Request::Network {
            licensee: owned.into(),
            date: Date::new(2016, 1, 1).unwrap(),
        };
        assert_eq!(
            round_trip(&mut stream, &point),
            single.handle(&point).encode()
        );
        assert_eq!(
            Response::decode(&round_trip(&mut stream, &Request::Shutdown)),
            Ok(Response::ShuttingDown)
        );

        let stats = serving
            .join()
            .expect("server thread")
            .expect("server ran cleanly");
        assert_eq!(stats.errors, 1, "only the faulted scatter is an error");
    }
}
